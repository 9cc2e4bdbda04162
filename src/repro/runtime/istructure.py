"""I-structures: write-once arrays (paper §2.1).

An I-structure separates storage allocation from element definition, like
an imperative array, but each element can be defined only once:

* ``matrix(e1, e2)`` — allocate; all elements start *undefined*.
* ``A[i1, i2] = e`` — define; a second write raises :class:`IStructureError`.
* ``A[i1, i2]`` — read; reading an undefined element raises too.

Indices are 1-based, matching the paper's programs. The same class backs
one- and two-dimensional structures (``vector(n)`` is ``matrix`` with one
dimension). :class:`LocalArray` is the mutable scratch buffer used by the
generated message-passing code (``oldvalues``, ``snewvalues``...), which is
*not* write-once.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.errors import IStructureError

Number = int | float

#: What an allocated-but-unwritten cell holds. Public because the SPMD
#: backends and the scatter/gather layout code scan raw cell lists.
UNDEFINED = object()


class IStructure:
    """A write-once array with 1-based indexing and explicit bounds."""

    __slots__ = ("name", "shape", "_cells", "_defined_count")

    def __init__(self, shape: tuple[int, ...], name: str = "<istructure>"):
        if not shape or any(d < 0 for d in shape):
            raise IStructureError(f"bad I-structure shape {shape!r} for {name}")
        self.name = name
        self.shape = tuple(shape)
        size = 1
        for d in shape:
            size *= d
        self._cells: list[object] = [UNDEFINED] * size
        self._defined_count = 0

    # -- indexing ---------------------------------------------------------
    def _offset(self, indices: tuple[int, ...]) -> int:
        # Fast paths for the only ranks the language supports; anything
        # unusual (rank mismatch, out of bounds) falls through to the
        # error-reporting slow path.
        shape = self.shape
        if len(indices) == 2 and len(shape) == 2:
            i, j = indices
            d0, d1 = shape
            if 1 <= i <= d0 and 1 <= j <= d1:
                return (i - 1) * d1 + (j - 1)
        elif len(indices) == 1 and len(shape) == 1:
            i = indices[0]
            if 1 <= i <= shape[0]:
                return i - 1
        return self._offset_slow(indices)

    def _offset_slow(self, indices: tuple[int, ...]) -> int:
        if len(indices) != len(self.shape):
            raise IStructureError(
                f"{self.name}: rank mismatch, got {len(indices)} indices "
                f"for shape {self.shape}"
            )
        offset = 0
        for idx, dim in zip(indices, self.shape):
            if not 1 <= idx <= dim:
                raise IStructureError(
                    f"{self.name}: index {indices} out of bounds for shape "
                    f"{self.shape} (indices are 1-based)"
                )
            offset = offset * dim + (idx - 1)
        return offset

    def read(self, *indices: int) -> Number:
        """``A[i1, i2]`` — error if undefined (paper §2.1)."""
        value = self._cells[self._offset(indices)]
        if value is UNDEFINED:
            raise IStructureError(
                f"{self.name}: read of undefined element {indices}"
            )
        return value  # type: ignore[return-value]

    def write(self, *args: Number) -> None:
        """``A[i1, i2] = e`` — error if already defined (paper §2.1)."""
        *indices, value = args
        offset = self._offset(tuple(int(i) for i in indices))
        if self._cells[offset] is not UNDEFINED:
            raise IStructureError(
                f"{self.name}: second write to element {tuple(indices)}"
            )
        self._cells[offset] = value
        self._defined_count += 1

    def accumulate(self, *args: Number) -> None:
        """``A[i1, i2] += e`` — first update defines, later updates add.

        The one sanctioned relaxation of write-once semantics: scatter
        targets (histogram bins, sparse row sums) accumulate an
        order-insensitive reduction instead of raising on the second
        update. Reads still raise while the element is undefined, and
        mixing ``=`` and ``+=`` on one element keeps the usual rules
        (``=`` after any update raises as a second write).
        """
        *indices, value = args
        offset = self._offset(tuple(int(i) for i in indices))
        current = self._cells[offset]
        if current is UNDEFINED:
            self._cells[offset] = value
            self._defined_count += 1
        else:
            self._cells[offset] = current + value

    def is_defined(self, *indices: int) -> bool:
        return self._cells[self._offset(indices)] is not UNDEFINED

    # -- bulk helpers (testing / verification) ------------------------------
    @property
    def defined_count(self) -> int:
        return self._defined_count

    @property
    def size(self) -> int:
        return len(self._cells)

    def to_list(self, undefined=None) -> list:
        """Flattened row-major contents with ``undefined`` as filler."""
        return [undefined if c is UNDEFINED else c for c in self._cells]

    def to_nested(self, undefined=None) -> list:
        """Nested (row-major) contents, matching the shape."""
        flat = self.to_list(undefined)
        if len(self.shape) == 1:
            return flat
        rows, cols = self.shape  # rank-2 is all the language supports
        return [flat[r * cols : (r + 1) * cols] for r in range(rows)]

    def __repr__(self) -> str:
        return (
            f"IStructure({self.name!r}, shape={self.shape}, "
            f"defined={self._defined_count}/{self.size})"
        )


class LocalArray:
    """A mutable, re-writable buffer with 1-based indexing.

    Used for communication staging (``oldvalues``, ``snewvalues``,
    ``rnewvalues`` in the paper's Appendix A listings). Reads of
    never-written slots raise, which catches compiler bugs where a buffer
    is consumed before it is filled.
    """

    __slots__ = ("name", "shape", "_cells")

    def __init__(self, shape: tuple[int, ...], name: str = "<buffer>"):
        if not shape or any(d < 0 for d in shape):
            raise IStructureError(f"bad buffer shape {shape!r} for {name}")
        self.name = name
        self.shape = tuple(shape)
        size = 1
        for d in shape:
            size *= d
        self._cells: list[object] = [UNDEFINED] * size

    def _offset(self, indices: tuple[int, ...]) -> int:
        shape = self.shape
        if len(indices) == 2 and len(shape) == 2:
            i, j = indices
            d0, d1 = shape
            if 1 <= i <= d0 and 1 <= j <= d1:
                return (i - 1) * d1 + (j - 1)
        elif len(indices) == 1 and len(shape) == 1:
            i = indices[0]
            if 1 <= i <= shape[0]:
                return i - 1
        return self._offset_slow(indices)

    def _offset_slow(self, indices: tuple[int, ...]) -> int:
        if len(indices) != len(self.shape):
            raise IStructureError(
                f"{self.name}: rank mismatch, got {len(indices)} indices "
                f"for shape {self.shape}"
            )
        offset = 0
        for idx, dim in zip(indices, self.shape):
            if not 1 <= idx <= dim:
                raise IStructureError(
                    f"{self.name}: index {indices} out of bounds for shape "
                    f"{self.shape} (indices are 1-based)"
                )
            offset = offset * dim + (idx - 1)
        return offset

    def read(self, *indices: int) -> Number:
        value = self._cells[self._offset(indices)]
        if value is UNDEFINED:
            raise IStructureError(
                f"{self.name}: read of never-written buffer slot {indices}"
            )
        return value  # type: ignore[return-value]

    def write(self, *args: Number) -> None:
        *indices, value = args
        self._cells[self._offset(tuple(int(i) for i in indices))] = value

    def fill_from(self, values: Iterable[Number], start: int = 1) -> None:
        """Write consecutive slots starting at 1-based index ``start``."""
        for k, value in enumerate(values):
            self.write(start + k, value)

    def slice(self, lo: int, hi: int) -> list[Number]:
        """Values of 1-based slots ``lo..hi`` inclusive."""
        return [self.read(k) for k in range(lo, hi + 1)]

    @property
    def size(self) -> int:
        return len(self._cells)

    def __repr__(self) -> str:
        return f"LocalArray({self.name!r}, shape={self.shape})"
