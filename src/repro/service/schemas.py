"""Request validation and canonical artifact keys for the control plane.

No third-party schema library: requests are small, flat JSON objects,
and field-by-field validation with precise error messages (field name +
what was wrong) is a page of code. Every check raises
:class:`SchemaError`, which the routing layer renders as a 400 with the
offending field.

The **canonical key** is the part that must stay stable: the artifact
id is ``sha256(canonical_key)`` (via :func:`repro.store.key_digest`),
so two submissions that mean the same compilation — byte-identical
source, same entry/dist/strategy/nprocs/n/blksize/shapes/tune options —
collapse onto one artifact, in this replica or any other sharing the
store. Bump :data:`SERVICE_VERSION` when the artifact record shape
changes incompatibly; old ids simply orphan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import TuneError
from repro.tune.space import STRATEGIES, parse_dist

#: Part of every canonical key: bump to orphan all previous artifacts.
#: v3: a ranking without ``dist`` or ``tune.dists`` searches the
#: locality analyzer's layout family (``repro.distrib.builtin.LAYOUTS``),
#: so a change to that family must bump this too.
SERVICE_VERSION = 3

#: Default guard rails; the service config can tighten or relax them.
MAX_SOURCE_BYTES = 256 * 1024
MAX_N = 4096
MAX_NPROCS = 1024


class SchemaError(ValueError):
    """A request field failed validation."""

    def __init__(self, fieldname: str, message: str):
        self.field = fieldname
        super().__init__(f"{fieldname}: {message}")


def _require_int(payload: dict, name: str, default, lo: int, hi: int) -> int:
    value = payload.get(name, default)
    if value is None:
        value = default
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(name, f"expected an integer, got {value!r}")
    if not lo <= value <= hi:
        raise SchemaError(name, f"must be in [{lo}, {hi}], got {value}")
    return value


def _require_str_list(value, name: str) -> "tuple[str, ...]":
    if not isinstance(value, (list, tuple)) or not value:
        raise SchemaError(name, f"expected a non-empty list, got {value!r}")
    out = []
    for item in value:
        if not isinstance(item, str):
            raise SchemaError(name, f"expected strings, got {item!r}")
        out.append(item)
    return tuple(out)


@dataclass(frozen=True)
class TuneSpec:
    """What (if any) ranking the artifact should carry."""

    enabled: bool = True
    top_k: int = 1  # 0 = predict-only ranking, no simulations
    # empty = the submitted dist, else the analyzer's layout family
    dists: "tuple[str, ...]" = ()
    strategies: "tuple[str, ...]" = ()  # empty = the tuner's default five
    blksizes: "tuple[int, ...]" = ()  # empty = just the submitted blksize

    def canonical(self) -> str:
        if not self.enabled:
            return "off"
        return (
            f"k={self.top_k};d={','.join(self.dists)};"
            f"s={','.join(self.strategies)};"
            f"b={','.join(map(str, self.blksizes))}"
        )


@dataclass(frozen=True)
class SubmitRequest:
    """A validated ``POST /v1/programs`` body."""

    source: str
    entry: "str | None" = None
    dist: "str | None" = None
    strategy: str = "optIII"
    nprocs: int = 4
    n: int = 48
    blksize: int = 8
    entry_shapes: "tuple[tuple[str, tuple], ...]" = ()
    tune: TuneSpec = field(default_factory=TuneSpec)

    @classmethod
    def validate(cls, payload, *, max_source_bytes: int = MAX_SOURCE_BYTES,
                 max_n: int = MAX_N,
                 max_nprocs: int = MAX_NPROCS) -> "SubmitRequest":
        if not isinstance(payload, dict):
            raise SchemaError("body", "expected a JSON object")
        known = {
            "source", "entry", "dist", "strategy", "nprocs", "n",
            "blksize", "entry_shapes", "tune",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise SchemaError(unknown[0], "unknown field")

        source = payload.get("source")
        if not isinstance(source, str) or not source.strip():
            raise SchemaError("source", "required, non-empty program text")
        if len(source.encode("utf-8")) > max_source_bytes:
            raise SchemaError(
                "source", f"exceeds {max_source_bytes} bytes"
            )

        entry = payload.get("entry")
        if entry is not None and not isinstance(entry, str):
            raise SchemaError("entry", f"expected a string, got {entry!r}")

        dist = payload.get("dist")
        if dist is not None:
            if not isinstance(dist, str):
                raise SchemaError("dist", f"expected a string, got {dist!r}")
            try:
                parse_dist(dist)
            except TuneError as exc:
                raise SchemaError("dist", str(exc)) from None

        strategy = payload.get("strategy", "optIII")
        if strategy not in STRATEGIES:
            raise SchemaError(
                "strategy",
                f"unknown strategy {strategy!r} "
                f"(known: {', '.join(STRATEGIES)})",
            )

        nprocs = _require_int(payload, "nprocs", 4, 1, max_nprocs)
        n = _require_int(payload, "n", 48, 1, max_n)
        blksize = _require_int(payload, "blksize", 8, 1, max_n)

        shapes_in = payload.get("entry_shapes")
        shapes: list[tuple[str, tuple]] = []
        if shapes_in is not None:
            if not isinstance(shapes_in, dict):
                raise SchemaError(
                    "entry_shapes",
                    "expected {array: [dim, ...]} with str/int dims",
                )
            for name in sorted(shapes_in):
                dims = shapes_in[name]
                if not isinstance(name, str) or not isinstance(dims, list):
                    raise SchemaError(
                        "entry_shapes",
                        "expected {array: [dim, ...]} with str/int dims",
                    )
                for dim in dims:
                    if isinstance(dim, bool) or not isinstance(
                        dim, (str, int)
                    ):
                        raise SchemaError(
                            "entry_shapes",
                            f"dims must be str or int, got {dim!r}",
                        )
                shapes.append((name, tuple(dims)))

        tune = cls._validate_tune(payload.get("tune"))

        return cls(
            source=source,
            entry=entry,
            dist=dist,
            strategy=strategy,
            nprocs=nprocs,
            n=n,
            blksize=blksize,
            entry_shapes=tuple(shapes),
            tune=tune,
        )

    @staticmethod
    def _validate_tune(value) -> TuneSpec:
        if value is None or value is True:
            return TuneSpec()
        if value is False:
            return TuneSpec(enabled=False)
        if not isinstance(value, dict):
            raise SchemaError(
                "tune", f"expected false or an options object, got {value!r}"
            )
        unknown = sorted(
            set(value)
            - {"top_k", "dists", "strategies", "blksizes"}
        )
        if unknown:
            raise SchemaError(f"tune.{unknown[0]}", "unknown field")
        top_k = _require_int(value, "top_k", 1, 0, 16)
        dists = (
            _require_str_list(value["dists"], "tune.dists")
            if "dists" in value else ()
        )
        for d in dists:
            try:
                parse_dist(d)
            except TuneError as exc:
                raise SchemaError("tune.dists", str(exc)) from None
        strategies = (
            _require_str_list(value["strategies"], "tune.strategies")
            if "strategies" in value else ()
        )
        for s in strategies:
            if s not in STRATEGIES:
                raise SchemaError(
                    "tune.strategies", f"unknown strategy {s!r}"
                )
        blksizes: tuple[int, ...] = ()
        if "blksizes" in value:
            raw = value["blksizes"]
            if not isinstance(raw, list) or not raw:
                raise SchemaError(
                    "tune.blksizes", f"expected a non-empty list, got {raw!r}"
                )
            for b in raw:
                if isinstance(b, bool) or not isinstance(b, int) or b < 1:
                    raise SchemaError(
                        "tune.blksizes", f"expected positive ints, got {b!r}"
                    )
            blksizes = tuple(raw)
        return TuneSpec(
            enabled=True, top_k=top_k, dists=dists,
            strategies=strategies, blksizes=blksizes,
        )

    # -- identity ------------------------------------------------------

    def canonical_key(self) -> str:
        """The string whose sha256 is the artifact id.

        Embeds the full source text (the digest hides it); every other
        field is canonically ordered and stringified, so logically
        identical requests — however their JSON was spelled — share an
        id.
        """
        shapes = ";".join(
            f"{name}:{','.join(map(str, dims))}"
            for name, dims in self.entry_shapes
        )
        return (
            f"service|v{SERVICE_VERSION}"
            f"|entry={self.entry or ''}"
            f"|dist={self.dist or ''}"
            f"|strategy={self.strategy}"
            f"|nprocs={self.nprocs}"
            f"|n={self.n}"
            f"|blksize={self.blksize}"
            f"|shapes={shapes}"
            f"|tune={self.tune.canonical()}"
            f"|source={self.source}"
        )

    def artifact_id(self) -> str:
        from repro import store

        return store.key_digest(self.canonical_key())

    def describe(self) -> dict:
        """JSON-safe echo of the request (stored on the artifact)."""
        return {
            "entry": self.entry,
            "dist": self.dist,
            "strategy": self.strategy,
            "nprocs": self.nprocs,
            "n": self.n,
            "blksize": self.blksize,
            "entry_shapes": {
                name: list(dims) for name, dims in self.entry_shapes
            },
            "tune": (
                {
                    "top_k": self.tune.top_k,
                    "dists": list(self.tune.dists),
                    "strategies": list(self.tune.strategies),
                    "blksizes": list(self.tune.blksizes),
                }
                if self.tune.enabled else False
            ),
            "source_bytes": len(self.source.encode("utf-8")),
        }
