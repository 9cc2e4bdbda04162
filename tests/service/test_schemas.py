"""Request validation and the content-addressed canonical key."""

import pytest

from repro.service.schemas import SchemaError, SubmitRequest, TuneSpec

GOOD = {
    "source": "map A by wrapped_cols;\nprocedure main() returns int "
              "{ return 1; }",
    "nprocs": 4,
    "n": 32,
}


def validate(**overrides):
    payload = {**GOOD, **overrides}
    for key, value in list(payload.items()):
        if value is ...:
            del payload[key]
    return SubmitRequest.validate(payload)


def test_minimal_request_fills_defaults():
    req = validate()
    assert req.strategy == "optIII"
    assert req.blksize == 8
    assert req.tune == TuneSpec()
    assert req.entry is None and req.dist is None


@pytest.mark.parametrize(
    "field,value,fragment",
    [
        ("source", ..., "source"),
        ("source", "", "source"),
        ("source", 42, "source"),
        ("source", "x" * (256 * 1024 + 1), "exceeds"),
        ("entry", 7, "entry"),
        ("dist", "no_such_dist", "unknown distribution"),
        ("dist", "wrapped_cols(", "malformed"),
        ("strategy", "optIV", "unknown strategy"),
        ("nprocs", 0, "nprocs"),
        ("nprocs", "four", "nprocs"),
        ("nprocs", True, "nprocs"),
        ("n", -1, "n"),
        ("blksize", 0, "blksize"),
        ("entry_shapes", ["Old"], "entry_shapes"),
        ("entry_shapes", {"Old": [1.5]}, "entry_shapes"),
        ("tune", "yes", "tune"),
        ("tune", {"top_k": -1}, "top_k"),
        ("tune", {"dists": []}, "tune.dists"),
        ("tune", {"dists": ["bogus"]}, "unknown distribution"),
        ("tune", {"strategies": ["optIV"]}, "unknown strategy"),
        ("tune", {"blksizes": [0]}, "tune.blksizes"),
        ("tune", {"surprise": 1}, "tune.surprise"),
        ("tune", {"auto_maps": True}, "tune.auto_maps: unknown field"),
        ("bogus_field", 1, "unknown field"),
    ],
)
def test_bad_fields_raise_schema_errors(field, value, fragment):
    with pytest.raises(SchemaError) as err:
        validate(**{field: value})
    assert fragment in str(err.value)


def test_non_object_body_rejected():
    with pytest.raises(SchemaError):
        SubmitRequest.validate(["not", "an", "object"])


def test_tune_false_disables_ranking():
    req = validate(tune=False)
    assert not req.tune.enabled


def test_entry_shapes_normalized_and_ordered():
    req = validate(entry_shapes={"B": ["N", 4], "A": ["N"]})
    assert req.entry_shapes == (("A", ("N",)), ("B", ("N", 4)))


def test_artifact_id_is_stable_and_content_addressed():
    a = validate().artifact_id()
    assert a == validate().artifact_id()  # deterministic
    assert len(a) == 64 and int(a, 16) >= 0
    # Any semantic change moves the id...
    assert validate(n=33).artifact_id() != a
    assert validate(strategy="optI").artifact_id() != a
    assert validate(source=GOOD["source"] + " ").artifact_id() != a
    assert validate(tune=False).artifact_id() != a
    # ...but a differently-spelled identical request does not.
    assert validate(entry=None, blksize=8).artifact_id() == a


def test_canonical_key_orders_entry_shapes():
    one = validate(entry_shapes={"A": ["N"], "B": ["N"]})
    two = validate(entry_shapes={"B": ["N"], "A": ["N"]})
    assert one.artifact_id() == two.artifact_id()


def test_describe_is_json_safe_echo():
    import json

    req = validate(entry_shapes={"Old": ["N", "N"]}, tune={"top_k": 2})
    echo = json.loads(json.dumps(req.describe()))
    assert echo["nprocs"] == 4
    assert echo["entry_shapes"] == {"Old": ["N", "N"]}
    assert echo["tune"]["top_k"] == 2
    assert "source" not in echo  # the id commits to it; no need to echo it
    assert echo["source_bytes"] > 0


def test_tune_spec_keys_and_echoes_its_four_fields():
    req = validate(tune={"top_k": 0})
    assert req.tune.canonical() == "k=0;d=;s=;b="
    assert req.describe()["tune"] == {
        "top_k": 0, "dists": [], "strategies": [], "blksizes": [],
    }


def test_service_version_pins_the_layout_family():
    """A ranking without dist or tune.dists searches the analyzer's
    layout family, so the artifact key must change when the family
    does. If this fails, bump SERVICE_VERSION together with LAYOUTS and
    update the pin here."""
    from repro.distrib.builtin import LAYOUTS
    from repro.service.schemas import SERVICE_VERSION

    pinned = (3, {
        2: (
            ("cols", "wrapped", "wrapped_cols"),
            ("rows", "wrapped", "wrapped_rows"),
            ("cols", "block", "block_cols"),
            ("rows", "block", "block_rows"),
            ("cols", "block_cyclic", "block_cyclic_cols(4)"),
            ("rows", "block_cyclic", "block_cyclic_rows(4)"),
        ),
        1: (
            ("elems", "wrapped", "wrapped"),
            ("elems", "block", "block"),
        ),
    })
    assert (SERVICE_VERSION, LAYOUTS) == pinned, (
        "the layout family changed: bump SERVICE_VERSION so stores "
        "shared with older code do not serve stale rankings"
    )

