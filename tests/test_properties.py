"""Property tests: snapshot I/O and the config round trip."""

import configparser
import math
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nordlimit import cli
from nordlimit.fields import Grid3, read_snapshot, write_snapshot

HEADER = struct.Struct("<4sIIddI")
PROPERTY = settings(max_examples=25, deadline=None)

# any float64 bit pattern the writer may meet, NaN payloads included
BITS = st.integers(0, 2**64 - 1).map(
    lambda b: float(np.array(b, dtype=np.uint64).view(np.float64)))
SNAPSHOTS = st.fixed_dictionaries({
    "n": st.sampled_from([16, 32]),
    "ncomp": st.integers(1, 7),
    "length": st.floats(1e-3, 1e3),
    "t": st.floats(allow_nan=False),
    "seed": st.integers(0, 2**32 - 1),
    "specials": st.lists(BITS, max_size=8),
})


def make_fields(snap):
    rng = np.random.default_rng(snap["seed"])
    shape = (snap["ncomp"],) + (snap["n"],) * 3
    data = rng.standard_normal(shape) * 10.0 ** rng.uniform(-300, 300)
    flat = data.reshape(-1)
    for value, at in zip(snap["specials"], rng.integers(0, flat.size, 8)):
        flat[at] = value
    return data


def write(tmp, snap):
    path = os.path.join(tmp, "state.nrdf")
    data = make_fields(snap)
    write_snapshot(path, Grid3(snap["n"], snap["length"]), snap["t"], data)
    return path, data


@PROPERTY
@given(snap=SNAPSHOTS)
def test_snapshot_round_trip_is_bit_exact(snap):
    with tempfile.TemporaryDirectory() as tmp:
        path, data = write(tmp, snap)
        grid, t, back = read_snapshot(path)
    assert grid.n == snap["n"] and grid.length == snap["length"]
    assert t == snap["t"]
    assert back.shape == data.shape
    assert back.tobytes() == data.tobytes()


@PROPERTY
@given(snap=SNAPSHOTS, cut=st.floats(0.0, 1.0, exclude_max=True))
def test_truncated_snapshot_raises_clear_error(snap, cut):
    with tempfile.TemporaryDirectory() as tmp:
        path, _ = write(tmp, snap)
        size = os.path.getsize(path)
        keep = int(cut * size)
        with open(path, "r+b") as fh:
            fh.truncate(keep)
        part = "header" if keep < HEADER.size else "payload"
        with pytest.raises(ValueError, match="truncated snapshot %s: " % part):
            read_snapshot(path)


@PROPERTY
@given(n=st.integers(0, 2**32 - 1), ncomp=st.integers(0, 2**32 - 1))
@example(n=32, ncomp=0)
def test_snapshot_header_sizes_are_checked_against_the_file(n, ncomp):
    # a header announcing more values than the file holds is reported as
    # truncated before any buffer of that size is asked for
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bad.nrdf")
        with open(path, "wb") as fh:
            fh.write(HEADER.pack(b"NRDF", 1, n, 1.0, 0.0, ncomp))
            fh.write(b"\0" * 8 * 16**3)
        if ncomp * n**3 > 16**3:
            with pytest.raises(ValueError, match="truncated snapshot payload: "):
                read_snapshot(path)
        elif ncomp == 0:
            with pytest.raises(ValueError, match="no fields"):
                read_snapshot(path)
        elif n != 16:
            with pytest.raises(ValueError, match="grid size"):
                read_snapshot(path)


def config_values(typ, key):
    if typ is int:
        return st.integers(-10**9, 10**9)
    if typ is float:
        return st.floats(allow_nan=False)
    if key == "c":
        return st.one_of(st.just("inf"), st.floats(1e-3, 1e6).map(repr))
    return st.lists(st.floats(1e-3, 1e6), min_size=1, max_size=5).map(
        lambda cs: ",".join(map(repr, cs)))


CONFIGS = st.fixed_dictionaries({}, optional={
    section: st.fixed_dictionaries({}, optional={
        key: config_values(typ, key) for key, (typ, *_) in keys.items()})
    for section, keys in cli.CONFIG_SCHEMA.items()})


@PROPERTY
@given(cfg=CONFIGS)
def test_parse_config_inverts_serialize_config(cfg):
    # the config rendered as INI text by configparser itself
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.ini")
        writer = configparser.ConfigParser(interpolation=None)
        writer.read_dict(cfg)
        with open(path, "w") as fh:
            writer.write(fh)
        back = cli.parse_config(path, strict=True)
    assert back == cfg
    for section, keys in cfg.items():
        for key, value in keys.items():
            got = back[section][key]
            assert type(got) is type(value)
            if isinstance(value, float):  # -0.0 == 0.0, so compare signs
                assert math.copysign(1.0, got) == math.copysign(1.0, value)
