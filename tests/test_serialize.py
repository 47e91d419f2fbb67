"""Model document round trips are bit-exact."""
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import heavy_tailed_series, random_kernel, random_triplet, v1_document
from wismc.cli import main
from wismc.copulas import CopulaSpec
from wismc.errors import ParseError
from wismc.serialize import (
    dumps,
    kernel_from_dict,
    kernel_to_dict,
    load_model,
    save_model,
    triplet_from_dict,
    triplet_to_dict,
)
from wismc.triplet import (EmpiricalInverse, TripletFitConfig, TripletKernel,
                           fit_triplet_kernel)


class TestKernelRoundTrip:
    def test_bit_exact(self):
        rng = np.random.default_rng(0)
        kernel = random_kernel(rng, sorted(rng.normal(0, 0.02, 4)), n_bins=3,
                               t_max=5)
        doc = json.loads(dumps(kernel_to_dict(kernel)))
        back = kernel_from_dict(doc)
        assert np.array_equal(back.grid.edges, kernel.grid.edges)
        assert np.array_equal(back.grid.representatives, kernel.grid.representatives)
        assert np.array_equal(back.index_edges, kernel.index_edges)
        assert np.array_equal(back.counts, kernel.counts)
        assert np.array_equal(back.pmf, kernel.pmf)
        assert back.lam == kernel.lam and back.t_max == kernel.t_max

    def test_infinite_edges_survive(self):
        rng = np.random.default_rng(1)
        kernel = random_kernel(rng, [-0.02, 0.01], n_bins=1, t_max=3)
        text = dumps(kernel_to_dict(kernel))
        assert "Infinity" in text
        back = kernel_from_dict(json.loads(text))
        assert np.isinf(back.grid.edges[0]) and np.isinf(back.grid.edges[-1])

    def test_format_tag_checked(self):
        with pytest.raises(ParseError):
            kernel_from_dict({"format": "something-else"})


class TestTripletRoundTrip:
    def test_bit_exact_fitted_model(self, tmp_path):
        r, v = heavy_tailed_series(8000, 2)
        tk = fit_triplet_kernel(r, v, TripletFitConfig(n_states_r=3, n_states_v=3,
                                                       n_index_bins=2))
        path = tmp_path / "model.json"
        save_model(tk, path)
        back = load_model(path)
        assert isinstance(back, TripletKernel)
        assert np.array_equal(back.kernel_j.pmf, tk.kernel_j.pmf)
        assert np.array_equal(back.kernel_v.counts, tk.kernel_v.counts)
        assert np.array_equal(back.cond_wait.pmf, tk.cond_wait.pmf)
        assert back.copula.family == tk.copula.family
        assert back.copula.rho == tk.copula.rho
        assert back.signs == tk.signs
        for a, b in zip(back.inverse_j.samples, tk.inverse_j.samples):
            assert np.array_equal(a, b)
        # serialization is idempotent byte-for-byte, and the streamed file
        # holds the same text as dumps
        assert dumps(triplet_to_dict(back)) == dumps(triplet_to_dict(tk))
        assert path.read_text() == dumps(triplet_to_dict(tk))

    def test_hand_built_round_trip(self):
        rng = np.random.default_rng(3)
        tk = random_triplet(rng, [-0.02, 0.01], [-1.0, 0.5],
                            CopulaSpec("gumbel", theta=2.5), t_max=3)
        back = triplet_from_dict(json.loads(dumps(triplet_to_dict(tk))))
        assert back.copula.theta == tk.copula.theta
        assert np.array_equal(back.cond_wait.counts, tk.cond_wait.counts)
        assert back.inverse_j is None

    def test_format_tag_checked(self):
        with pytest.raises(ParseError):
            triplet_from_dict({"format": "wismc.kernel"})

    def _with_inverses(self, r_values):
        rng = np.random.default_rng(4)
        tk = random_triplet(rng, [-0.02, 0.0, 0.01], [-1.0, 0.5],
                            CopulaSpec("independence"))
        return dataclasses.replace(
            tk, inverse_j=EmpiricalInverse.from_data(r_values, tk.kernel_j.grid),
            inverse_v=EmpiricalInverse.from_data([-2.0, -1.0, 0.5, 0.5, 3.0],
                                                 tk.kernel_v.grid))

    def test_inverse_samples_round_trip(self):
        # the middle return state holds no sample: an empty list loads
        tk = self._with_inverses([-0.03, -0.02, -0.011, 0.009, 0.01, 0.04])
        assert tk.inverse_j.samples[1].size == 0
        back = triplet_from_dict(json.loads(dumps(triplet_to_dict(tk))))
        for a, b in zip(back.inverse_j.samples + back.inverse_v.samples,
                        tk.inverse_j.samples + tk.inverse_v.samples):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("damage", ["one list short", "one list more", "reversed",
                                        "nan", "inf", "in the next state's list",
                                        "not a flat list"])
    def test_inverse_samples_checked(self, damage):
        # EmpiricalInverse.from_data gives one ascending list of finite values
        # per grid state, each inside its state's bin; a version-1 file, which
        # holds the lists as they are, must hold that
        tk = self._with_inverses([-0.03, -0.02, -0.001, 0.0, 0.001, 0.01, 0.04])
        doc = v1_document(json.loads(dumps(triplet_to_dict(tk))))
        samples = doc["inverse_j"]["samples"]
        if damage == "one list short":
            samples.pop()
        elif damage == "one list more":
            samples.append([])
        elif damage == "reversed":
            samples[2].reverse()
        elif damage in ("nan", "inf"):
            samples[0][0] = float(damage)
        elif damage == "in the next state's list":
            samples[1].insert(0, samples[0][-1])
        else:
            samples[0] = [samples[0]]
        with pytest.raises(ParseError, match="inverse_j samples"):
            triplet_from_dict(doc)

    def test_zeros_of_both_signs_stay_apart(self):
        # np.unique would merge -0.0 and 0.0 into one run; runs split on bits
        tk = self._with_inverses([-0.03, 0.01])
        tk.inverse_j.samples[1] = np.array([-0.0, 0.0, -0.0])
        doc = json.loads(dumps(triplet_to_dict(tk)))
        assert list(map(repr, doc["inverse_j"]["values"][1])) == ["-0.0", "0.0", "-0.0"]
        assert doc["inverse_j"]["counts"][1] == [1, 1, 1]
        back = triplet_from_dict(doc)
        assert back.inverse_j.samples[1].view(np.int64).tolist() == \
            tk.inverse_j.samples[1].view(np.int64).tolist()

    @pytest.mark.parametrize("version", [0, "2", 2.0, True, None])
    def test_versions_other_than_integers_1_and_2_refused(self, version):
        doc = json.loads(dumps(triplet_to_dict(self._with_inverses([-0.03, 0.01]))))
        doc["version"] = version
        with pytest.raises(ParseError, match="model version"):
            triplet_from_dict(doc)

    def test_version_1_with_runs_refused(self):
        doc = dict(json.loads(dumps(triplet_to_dict(self._with_inverses([0.01])))), version=1)
        with pytest.raises(KeyError, match="samples"):
            triplet_from_dict(doc)

    def test_evaluation_identical_after_round_trip(self):
        from wismc.triplet import ConditioningCell, triplet_kernel_eval
        rng = np.random.default_rng(5)
        tk = random_triplet(rng, [-0.02, 0.01, 0.03], [-1.0, 0.5],
                            CopulaSpec("gaussian", rho=0.45), t_max=3, max_b=3)
        back = triplet_from_dict(json.loads(dumps(triplet_to_dict(tk))))
        cell = ConditioningCell(i=1, v=0, b_j=1, b_v=0)
        for t in range(1, tk.t_max + 1):
            for j, a in [(0.015, 0.7), (-0.02, np.inf), (0.0, -0.5)]:
                assert triplet_kernel_eval(back, cell, j, a, t) == \
                    triplet_kernel_eval(tk, cell, j, a, t)


# sample values with repeats, zeros of both signs and subnormals; draws of few
# values leave states empty
SAMPLE_VALUES = st.lists(st.sampled_from([-0.0, 0.0, -0.03, -0.011, 5e-324, -5e-324,
                                          0.004, 0.01, 0.02, 0.5, -1.0, 3.0]), max_size=40)
ROUND_TRIP_MODEL = random_triplet(np.random.default_rng(6), [-0.02, 0.0, 0.01, 0.03],
                                  [-1.0, 0.5], CopulaSpec("independence"))


def _per_state(values, grid) -> EmpiricalInverse:
    """``values`` split by state, each state's list sorted stably, so that
    zeros of both signs keep the order they were drawn in."""
    states = grid.state_of(np.array(values, dtype=float))
    return EmpiricalInverse(samples=[np.array(sorted(x for x, s in zip(values, states) if s == k),
                                              dtype=float) for k in range(grid.n_states)],
                            grid=grid)


class TestRunForm:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(SAMPLE_VALUES, SAMPLE_VALUES)
    def test_samples_round_trip_bitwise(self, tmp_path_factory, r_values, v_values):
        tk = dataclasses.replace(
            ROUND_TRIP_MODEL,
            inverse_j=_per_state(r_values, ROUND_TRIP_MODEL.kernel_j.grid),
            inverse_v=_per_state(v_values, ROUND_TRIP_MODEL.kernel_v.grid))
        path = tmp_path_factory.getbasetemp() / "run_form_model.json"
        save_model(tk, path)
        back = load_model(path)
        from_v1 = triplet_from_dict(v1_document(json.loads(path.read_text())))
        for name in ("inverse_j", "inverse_v"):
            want = getattr(tk, name).samples
            for got in (getattr(back, name).samples, getattr(from_v1, name).samples):
                assert len(got) == len(want)
                for a, b in zip(got, want):
                    assert a.dtype == np.float64
                    assert np.array_equal(a.view(np.int64), b.view(np.int64))


# bools are ints to isinstance, np.float64 values are floats; big ints, -0.0,
# NaN, infinities and non-ASCII text all take json's own scalar encoding
SCALARS = st.one_of(st.booleans(), st.none(), st.integers(-2**70, 2**70), st.floats(),
                    st.floats().map(np.float64), st.just(-0.0), st.text())
FLAT_LISTS = st.one_of(st.lists(st.integers(-2**70, 2**70)), st.lists(st.floats()),
                       st.lists(st.floats(allow_nan=False, allow_infinity=False)))
DOCS = st.recursive(
    st.one_of(SCALARS, FLAT_LISTS),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=40)


class TestWriter:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(DOCS)
    def test_dumps_is_json_dumps(self, doc):
        assert dumps(doc) == json.dumps(doc, sort_keys=True, indent=1)

    def test_save_model_is_json_dump(self, market_csv, tmp_path):
        path = tmp_path / "model.json"
        assert main(["estimate", "--input", market_csv["path"], "--out", str(path)]) == 0
        with open(tmp_path / "json.json", "w") as fh:
            # the inverses' runs are arrays
            json.dump(triplet_to_dict(load_model(path)), fh, sort_keys=True, indent=1,
                      default=np.ndarray.tolist)
        assert path.read_bytes() == (tmp_path / "json.json").read_bytes()
