"""The report and partition writer against the standard-library encoder."""

import dataclasses
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from siolab import cli, jsonout, measure, splitter
from siolab.jsonout import _jsonify


def oracle(obj) -> str:
    return json.dumps(_jsonify(obj), indent=2, sort_keys=True, allow_nan=False)


@dataclasses.dataclass
class Pair:
    first: object
    second: object


floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1e308, -1.7976931348623157e308, 5e-324, 1e-300, 1e16, 0.1]),
)
plain = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.text(max_size=6),  # includes non-ASCII text
    floats,
)
numpy_scalars = st.one_of(
    floats.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.complex_numbers().map(np.complex128),
    st.complex_numbers(),
)
arrays = hnp.arrays(
    dtype=st.sampled_from([np.int64, np.uint8, np.bool_, np.float64, np.complex128]),
    shape=hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
)
# lists of rows: equal-length ones take the joined fast path, and rows that
# mix types or lengths take the recursive one
rows = st.one_of(
    st.integers(1, 3).flatmap(
        lambda k: st.lists(st.lists(plain, min_size=k, max_size=k), max_size=5)
    ),
    st.integers(1, 3).flatmap(
        lambda k: st.lists(
            st.lists(st.integers(-9, 9), min_size=k, max_size=k).map(tuple), max_size=5
        )
    ),
    st.lists(st.lists(plain, max_size=3), max_size=4),
)
keys = st.one_of(
    st.text(max_size=4),
    st.sampled_from(["1,2", "0", "a"]),  # collide with the keys below
    st.integers(-3, 3),
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
)
values = st.recursive(
    st.one_of(plain, numpy_scalars, arrays, rows),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(keys, children, max_size=4),
        st.builds(Pair, children, children),
    ),
    max_leaves=24,
)


@settings(max_examples=200, deadline=None)
@given(values)
def test_dumps_matches_json_oracle(obj):
    assert jsonout.dumps(obj) == oracle(obj)


def test_split_writes_oracle_bytes(tmp_path):
    spec = "lebesgue_grid:h=0.03125,dimension=2"
    report, part = tmp_path / "split.json", tmp_path / "partition.json"
    assert cli.main([
        "split", "--sigma", spec, "--level", "3",
        "--partition-out", str(part), "--output", str(report),
    ]) == 0
    sigma = measure.lebesgue_grid([0.0, 0.0], 1.0, 0.03125, dimension=2)
    partition = splitter.build_partition(sigma, 3)
    assert part.read_text() == oracle(splitter.partition_to_dict(partition)) + "\n"
    cfg = cli.resolve_config("split", None, {
        "sigma": spec, "level": 3, "partition_out": str(part), "output": str(report),
    })
    cfg.pop("csv")  # main takes the CSV path out of the embedded configuration
    assert report.read_text() == oracle(cli.run("split", cfg)) + "\n"
