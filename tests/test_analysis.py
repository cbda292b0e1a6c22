import csv
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import per_gate_reference
from qftmpo import analysis, circuits
from qftmpo import mpo as mpo_module
from qftmpo.analysis import (
    StudyResult,
    aqft_rank_study,
    doubling_window,
    hs_error_study,
    loglinear_slope,
    middle_bond,
    middle_tensor_difference,
    ordering_study,
    periodic_study,
    rotation_scheme_study,
    scaling_benchmark,
    significant_weights,
    spectrum_convergence_study,
    spectrum_study,
    spectrum_tail_slope,
    tensor_convergence_study,
)
from qftmpo._canonical import bonds_around
from qftmpo.circuits import (
    RotationScheme,
    aqft_circuit,
    compile_to_mpo,
    compile_trace,
    nearest_neighbor_qft_circuit,
)
from qftmpo.errors import NumericalError
from qftmpo.mpo import fourier_mpo, from_dense_operator
from qftmpo.tensor import TruncationPolicy


class TestHelpers:
    def test_middle_bond(self):
        assert middle_bond(2) == 0
        assert middle_bond(3) == 1
        assert middle_bond(8) == 3
        assert middle_bond(9) == 4
        with pytest.raises(ValueError, match="n = 1 has no middle bond"):
            middle_bond(1)

    def test_loglinear_slope_exact(self):
        x = np.arange(5)
        y = 10.0 ** (-2.0 * x + 1)
        assert loglinear_slope(x, y) == pytest.approx(-2.0, abs=1e-12)

    def test_loglinear_slope_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            loglinear_slope([0, 1], [1.0, 0.0])

    def test_significant_weights_drops_floor(self):
        p = np.array([1.0, 1e-3, 1e-9, 1e-30, 1e-31])
        mask = significant_weights(p)
        assert list(mask) == [True, True, True, False, False]

    def test_significant_weights_keeps_short_spectra(self):
        p = np.array([1e-30, 1e-31])
        assert significant_weights(p).sum() == 2

    def test_spectrum_tail_slope(self):
        p = 10.0 ** (-1.5 * np.arange(8))
        assert spectrum_tail_slope(p) == pytest.approx(-1.5, abs=1e-10)


class TestStudyResult:
    def make(self):
        return StudyResult(
            study="demo",
            metadata={"alpha": 1, "beta": [1, 2]},
            rows=[{"n": 2, "value": 0.5}, {"n": 3, "value": 0.25, "extra": True}],
        )

    def test_csv_has_metadata_comments_and_all_columns(self):
        text = self.make().to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "# study: demo"
        assert any(line.startswith("# alpha: 1") for line in lines)
        header = next(line for line in lines if not line.startswith("#"))
        assert header == "n,value,extra"
        data = [line for line in lines if not line.startswith("#")][1:]
        assert data[0] == "2,0.5,"
        assert data[1] == "3,0.25,true"

    def test_csv_parses_with_stdlib(self):
        text = self.make().to_csv()
        body = [line for line in text.strip().split("\n") if not line.startswith("#")]
        rows = list(csv.DictReader(io.StringIO("\n".join(body))))
        assert rows[0]["n"] == "2"
        assert float(rows[1]["value"]) == 0.25

    def test_json_roundtrip(self):
        doc = json.loads(self.make().to_json())
        assert doc["study"] == "demo"
        assert doc["schema_version"] == 1
        assert doc["rows"][1]["extra"] is True

    def test_code_version_independent_of_cwd(self, tmp_path, monkeypatch):
        monkeypatch.chdir(Path(__file__).resolve().parents[1])
        analysis._git_describe.cache_clear()
        from_root = spectrum_study([4]).metadata["code_version"]
        monkeypatch.chdir(tmp_path)
        analysis._git_describe.cache_clear()
        assert spectrum_study([4]).metadata["code_version"] == from_root

    def test_code_version_described_once_per_process(self, monkeypatch):
        analysis._git_describe.cache_clear()
        calls = []
        real_run = analysis.subprocess.run

        def counting_run(*args, **kwargs):
            calls.append(args)
            return real_run(*args, **kwargs)

        monkeypatch.setattr(analysis.subprocess, "run", counting_run)
        first = spectrum_study([4]).metadata["code_version"]
        second = spectrum_study([6]).metadata["code_version"]
        assert first == second
        assert len(calls) == 1

    @pytest.mark.parametrize("study", [
        lambda: spectrum_study([4]),
        lambda: spectrum_convergence_study([4], 6),
        lambda: tensor_convergence_study([4], 6),
        lambda: hs_error_study([6], [2, 4]),
        lambda: periodic_study([6], [3], rank_list=[8]),
        lambda: aqft_rank_study([6], bandwidth_list=[2, 3], check=False),
        lambda: rotation_scheme_study([6], [RotationScheme("power-law", exponent=2)]),
        lambda: ordering_study(3),
        lambda: scaling_benchmark([8], repeats=1),
    ], ids=["spectrum", "converge-spectrum", "converge-tensor", "hs-error", "periodic",
            "aqft-scan", "rotation-scan", "ordering-scan", "bench-scaling"])
    def test_metadata_names_versions_and_blas_threads(self, monkeypatch, study):
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        meta = study().metadata
        assert meta["numpy_version"] == np.__version__
        assert meta["python_version"] == "%d.%d.%d" % sys.version_info[:3]
        assert (meta["OMP_NUM_THREADS"], meta["OPENBLAS_NUM_THREADS"]) == ("1", "2")
        assert "MKL_NUM_THREADS" in meta and meta["MKL_NUM_THREADS"] is None

    def test_file_output(self, tmp_path):
        res = self.make()
        res.to_csv(tmp_path / "r.csv")
        res.to_json(tmp_path / "r.json")
        assert (tmp_path / "r.csv").read_text().startswith("# study: demo")
        assert json.loads((tmp_path / "r.json").read_text())["study"] == "demo"


class TestSpectrumStudies:
    def test_spectrum_rows_and_decay(self):
        res = spectrum_study([6, 8])
        assert {row["n"] for row in res.rows} == {6, 8}
        for n in (6, 8):
            p = [row["probability"] for row in res.rows if row["n"] == n]
            assert sum(p) == pytest.approx(1.0, abs=1e-10)
            assert all(a >= b for a, b in zip(p, p[1:]))
            assert float(res.metadata["tail_slopes"][str(n)]) < -1.0

    def test_spectrum_convergence_decreases(self):
        res = spectrum_convergence_study([6, 10, 14], n_ref=16)
        diffs = [row["mean_abs_diff"] for row in res.rows]
        assert diffs[0] > diffs[-1]
        assert diffs[-1] < 1e-3

    def test_tensor_convergence_decreases(self):
        res = tensor_convergence_study([6, 10, 14], n_ref=16)
        diffs = [row["mean_abs_diff"] for row in res.rows]
        assert diffs[0] > diffs[-1]
        assert diffs[-1] < 1e-2

    @pytest.mark.parametrize("study", [spectrum_convergence_study, tensor_convergence_study])
    @pytest.mark.parametrize("n_ref", [4, 6])
    def test_reference_must_be_larger(self, study, n_ref):
        with pytest.raises(ValueError, match=rf"^n_ref \({n_ref}\) must exceed the largest "
                                             r"size in n_list \(6\)$"):
            study([4, 6], n_ref=n_ref)

    @pytest.mark.parametrize("study", [spectrum_convergence_study, tensor_convergence_study])
    def test_sizes_from_an_iterator(self, study):
        # the sizes are read more than once, so an iterator is listed first
        assert [row["n"] for row in study(iter([4, 6]), n_ref=8).rows] == [4, 6]

    def test_middle_tensor_difference_self_is_zero(self):
        mpo = compile_to_mpo(nearest_neighbor_qft_circuit(8), TruncationPolicy(1e-14))
        assert middle_tensor_difference(mpo, mpo) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("n", [10, 14])
    def test_middle_tensor_difference_between_compile_paths(self, n):
        # bare Gamma entries next to noise-floor Schmidt values differ by
        # 1e-3 between equal operators; the bond-weighted metric does not
        circ = nearest_neighbor_qft_circuit(n)
        policy = TruncationPolicy(1e-14)
        fused = compile_to_mpo(circ, policy)
        assert middle_tensor_difference(fused, per_gate_reference(circ, policy)) <= 1e-12

    @pytest.mark.parametrize("cutoff", [1e-14, 1e-10])
    def test_transform_central_bonds_are_nondegenerate(self, cutoff):
        # |.| is the whole gauge freedom of a bond with distinct Schmidt
        # values, so the tensor study needs no sorting on the transform
        for n in range(2, 65):
            mpo = fourier_mpo(n, TruncationPolicy(cutoff))
            for bond in bonds_around(mpo.gamma_vectors, n // 2, n // 2):
                assert np.all(np.abs(np.diff(bond)) > 1e-8 * bond[:-1]), n

    def test_middle_tensor_difference_refuses_degenerate_bond(self):
        # the swap's one bond carries four equal Schmidt values
        swap = np.eye(4)[[0, 2, 1, 3]]
        mpo = from_dense_operator(swap)
        lam = mpo.gamma_vectors[0]
        assert len(lam) == 4 and np.allclose(lam, lam[0])
        with pytest.raises(ValueError, match="^degenerate Schmidt values"):
            middle_tensor_difference(mpo, mpo)


class TestHsErrorStudy:
    def test_error_decreases_with_rank(self):
        res = hs_error_study([8], [2, 4, 6, 8])
        errs = {row["rank"]: row["hs_error"] for row in res.rows}
        assert errs[2] > errs[4] > errs[6]
        assert errs[8] < 1e-12
        assert float(res.metadata["slopes"]["8"]) < -1.0

    def test_multiple_sizes_share_shape(self):
        res = hs_error_study([6, 9], [2, 4])
        assert len(res.rows) == 4


class TestPeriodicStudy:
    def test_peaks_match_oracle_at_full_rank(self):
        res = periodic_study([8], [3, 5], rank_list=[16])
        for row in res.rows:
            assert row["max_peak_error"] < 1e-10
            assert row["peak_prob_exact"] > 0.7

    def test_low_rank_still_close_here(self):
        # the transform itself fits in rank 16; rank 4 visibly degrades
        res = periodic_study([8], [5], rank_list=[4, 16])
        errs = {row["rank"]: row["max_peak_error"] for row in res.rows}
        assert errs[16] < 1e-10
        assert errs[4] > errs[16]

    def test_offset_row_fields(self):
        res = periodic_study([6], [4], rank_list=[16], offset=1)
        assert res.rows[0]["offset"] == 1
        assert res.rows[0]["max_peak_error"] < 1e-10

    def test_inputs_built_once_per_size_and_period(self, monkeypatch):
        built = []
        original = analysis.CanonicalMps.from_periodic_state

        def counting(*args, **kwargs):
            built.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(analysis.CanonicalMps, "from_periodic_state", counting)
        res = periodic_study([8], [3, 5], rank_list=[4, 8])
        assert len(res.rows) == 4
        assert built == [(8, 3, 0), (8, 5, 0)]

    def test_past_the_dense_caps(self):
        # the closed-form reference has no width cap: 64 qubits, where the
        # support has 2^64 / period points
        res = periodic_study([64], [3, 7, 31], rank_list=[16])
        assert [row["period"] for row in res.rows] == [3, 7, 31]
        for row in res.rows:
            assert row["max_peak_error"] <= 2e-15


class TestAqftStudy:
    def test_growth_regime_passes_checks(self):
        res = aqft_rank_study([10], bandwidth_list=[5, 6, 7, 8, 9, 10])
        ranks = {row["bandwidth"]: row["max_bond_rank"] for row in res.rows}
        full = res.metadata["full_qft_ranks"]["10"]
        for b, rank in ranks.items():
            if b < 10:
                assert rank > full

    def test_below_growth_regime_raises(self):
        with pytest.raises(NumericalError):
            aqft_rank_study([10], bandwidth_list=[1, 2], check=True)

    def test_check_off_reports_small_ranks(self):
        res = aqft_rank_study([8], bandwidth_list=[1, 2, 3], check=False)
        ranks = {row["bandwidth"]: row["max_bond_rank"] for row in res.rows}
        assert ranks[1] == 1
        assert ranks[2] == 2
        assert ranks[3] == 4

    def test_saturation_reports_lower_bound(self):
        res = aqft_rank_study([12], bandwidth_list=[8], rank_ceiling=16, check=False)
        row = res.rows[0]
        assert row["saturated"] is True
        assert row["max_bond_rank"] == 17

    def test_pinned_at_study_arguments(self):
        # criterion 5 checks only trends; this pins the ranks the compile gives
        res = aqft_rank_study([12], range(5, 12), TruncationPolicy(1e-10), rank_ceiling=64)
        assert [row["max_bond_rank"] for row in res.rows] == [16, 32, 61, 63, 48, 31, 18]
        assert not any(row["saturated"] for row in res.rows)
        assert res.metadata["full_qft_ranks"] == {"12": 10}

    # every train up to 2^9 wide is taken whatever the ceiling: at n = 16
    # from b = 9 they are 2^8 wide; at n = 22, b = 11 it is 2^10, past
    # _WIDEST_TRAIN
    @pytest.mark.parametrize("ceiling,gated", [(64, [(22, 11)]), (16, [(22, 11)])])
    def test_carry_trains_below_the_ceiling(self, monkeypatch, ceiling, gated):
        compiled = []

        def recording(circuit, *args, **kwargs):
            compiled.append((circuit.n_qubits, circuit.params["bandwidth"]))
            return compile_trace(circuit, *args, **kwargs)

        monkeypatch.setattr(circuits, "compile_trace", recording)
        aqft_rank_study([12, 16, 22], range(1, 12), TruncationPolicy(1e-10),
                        rank_ceiling=ceiling, check=False)
        assert compiled == gated

    @pytest.mark.parametrize("bandwidths,ceiling,builds", [
        ([5, 12], 64, 1), ([12], 64, 1), ([5], 64, 1), ([5, 12], 9, 2)])
    def test_full_transform_built_once(self, monkeypatch, bandwidths, ceiling, builds):
        # the row of bandwidth n is the transform's bulk tensor; only a
        # saturated one leaves the metadata to build it again
        built, sweep = [], mpo_module._fourier_sweep

        def recording(n, *args):
            built.append(n)
            return sweep(n, *args)

        monkeypatch.setattr(circuits, "_fourier_sweep", recording)
        monkeypatch.setattr(mpo_module, "_fourier_sweep", recording)
        res = aqft_rank_study([12], bandwidths, TruncationPolicy(1e-10), rank_ceiling=ceiling,
                              check=False)
        assert built == [12] * builds
        assert res.metadata["full_qft_ranks"] == {"12": 10}

    @pytest.mark.parametrize("n,ceiling,rank", [
        (6, 10, 8), (7, 11, 8), (8, 12, 10), (10, 16, 10), (12, 64, 10)])
    def test_full_bandwidth_rows_are_the_transforms(self, n, ceiling, rank):
        # 2^{n-1} is over each ceiling: the gate compile these rows once
        # took gives the bulk tensor's row
        res = aqft_rank_study([n], [n], rank_ceiling=ceiling, check=False)
        assert res.rows == [{"n": n, "bandwidth": n, "max_bond_rank": rank, "saturated": False}]
        assert res.metadata["full_qft_ranks"] == {str(n): rank}
        trace = compile_trace(aqft_circuit(n, n), TruncationPolicy(1e-10), rank_ceiling=ceiling)
        assert not trace.saturated and trace.mpo.max_bond_rank == rank

    @pytest.mark.parametrize("bandwidths", [[0], [9], [3, 13]])
    def test_bandwidth_outside_the_register(self, bandwidths):
        with pytest.raises(ValueError, match=r"bandwidth must lie in \[1, 8\]"):
            aqft_rank_study([8], bandwidths, rank_ceiling=1024, check=False)

    @pytest.mark.parametrize("bandwidth", [1, 4])
    def test_rank_ceiling_below_one(self, bandwidth):
        with pytest.raises(ValueError, match="rank_ceiling must be >= 1, got 0"):
            aqft_rank_study([8], [bandwidth], rank_ceiling=0, check=False)

    def test_doubling_window(self):
        per_b = {2: (4, False), 3: (8, False), 4: (16, False),
                 5: (18, False), 6: (12, False)}
        assert doubling_window(per_b) == [2, 3, 4]


# minus the standard row's middle-bond slope at n = 14, cutoff 1e-10
STANDARD_SLOPE = 2.0616144164


class TestRotationStudy:
    def test_rows_and_contrast(self):
        res = rotation_scheme_study(
            [10],
            [RotationScheme("standard"), RotationScheme("base-n", base=3),
             RotationScheme("power-law", exponent=2)],
        )
        by_scheme = {row["scheme"]: row for row in res.rows}
        std = by_scheme["standard"]
        assert not std["saturated"]
        assert by_scheme["base-n:3"]["tail_slope"] < std["tail_slope"]
        pl = by_scheme["power-law:2"]
        assert pl["saturated"] or pl["max_bond_rank"] > std["max_bond_rank"]

    def test_pinned_at_study_arguments(self):
        # criterion 8 checks only trends; this pins the ranks and the slopes
        res = rotation_scheme_study([14], ["standard", "base-n:3", "power-law:2"],
                                    TruncationPolicy(1e-10), rank_ceiling=64)
        by_scheme = {row["scheme"]: row for row in res.rows}
        assert {s: row["max_bond_rank"] for s, row in by_scheme.items()} == {
            "standard": 10, "base-n:3": 7, "power-law:2": 65}
        assert [row["saturated"] for row in res.rows] == [False, False, True]
        # the bulk tensor cut once at 1e-10; the gate compile's per-step cuts
        # read -2.0616145174 (see test_gate_compile_near_the_standard_pin)
        assert abs(by_scheme["standard"]["tail_slope"] + STANDARD_SLOPE) <= 1e-8
        assert abs(by_scheme["base-n:3"]["tail_slope"] + 3.0161970116) <= 1e-8

    def test_gate_compile_near_the_standard_pin(self):
        mpo = compile_to_mpo(nearest_neighbor_qft_circuit(14), TruncationPolicy(1e-10))
        slope = spectrum_tail_slope(mpo.bond_probability_distribution(middle_bond(14)))
        assert abs(slope + STANDARD_SLOPE) <= 2e-7

    def test_trained_schemes_skip_the_gate_compile(self, monkeypatch):
        compiled = []

        def recording(circuit, *args, **kwargs):
            compiled.append(circuit.params["scheme"])
            return compile_trace(circuit, *args, **kwargs)

        monkeypatch.setattr(circuits, "compile_trace", recording)
        schemes = ["standard", "base-n:3", "base-n:5", "power-law:2",
                   "perturbed-exponent:0.1:7", "perturbed-base:0.1:7",
                   "perturbed-exponent:0.1:7:per-gate"]
        rotation_scheme_study([10], schemes, rank_ceiling=64)
        # one angle per order but for the per-gate draws
        assert compiled == ["perturbed-exponent:0.1:7:per-gate"]

    def test_benchmark_scans_compile_no_gates(self, monkeypatch):
        # acceptance criteria 5 and 8 at the arguments the study suite runs
        compiled = []
        monkeypatch.setattr(circuits, "compile_trace",
                            lambda *args, **kwargs: compiled.append(args) or None)
        aqft = aqft_rank_study([12], range(5, 12), TruncationPolicy(1e-10), rank_ceiling=64)
        rotation = rotation_scheme_study(
            [14], ["standard", "base-n:3", "power-law:2", "perturbed-exponent:0.1:7"],
            TruncationPolicy(1e-10), rank_ceiling=64)
        assert compiled == []
        assert [row["max_bond_rank"] for row in aqft.rows] == [16, 32, 61, 63, 48, 31, 18]
        assert [(row["max_bond_rank"], row["saturated"]) for row in rotation.rows] == [
            (10, False), (7, False), (65, True), (65, True)]

    @pytest.mark.parametrize("scheme", ["standard", "base-n:3"])
    def test_trained_rows_saturate_on_the_final_rank(self, scheme):
        # ranks 10 and 7 at n = 14, both over a ceiling of 4
        res = rotation_scheme_study([14], [scheme], rank_ceiling=4)
        assert res.rows[0]["saturated"] is True
        assert res.rows[0]["max_bond_rank"] == 5
        assert res.rows[0]["tail_slope"] is None

    @pytest.mark.parametrize("scheme", ["standard", "base-n:3", "power-law:2"])
    def test_rank_ceiling_below_one(self, scheme):
        with pytest.raises(ValueError, match="rank_ceiling must be >= 1, got 0"):
            rotation_scheme_study([6], [scheme], rank_ceiling=0)

    def test_overflowing_base_fails_as_on_gates(self):
        with pytest.raises(ValueError, match="angle at order 16 is not a finite number"):
            rotation_scheme_study([40], ["base-n:99999999999999999999"])

    def test_accepts_scheme_strings(self):
        res = rotation_scheme_study([6], ["standard", "base-n:4"])
        assert {row["scheme"] for row in res.rows} == {"standard", "base-n:4"}


class TestOrderingStudy:
    def test_exhaustive_at_four(self):
        res = ordering_study(4)
        assert len(res.rows) == 24
        assert res.metadata["bit_reversal"] == "3-2-1-0"
        assert res.metadata["bit_reversal"] in res.metadata["optimal_permutations"]
        best = res.metadata["minimum_rank"]
        assert best == min(row["max_schmidt_rank"] for row in res.rows)

    def test_identity_permutation_is_worse(self):
        res = ordering_study(4)
        by_perm = {row["permutation"]: row["max_schmidt_rank"] for row in res.rows}
        assert by_perm["0-1-2-3"] > by_perm["3-2-1-0"]

    def test_size_cap(self):
        with pytest.raises(ValueError):
            ordering_study(9)
        with pytest.raises(ValueError):
            ordering_study(1)


class TestScalingBenchmark:
    def test_rows_and_fit(self):
        res = scaling_benchmark([16, 32], repeats=1)
        assert len(res.rows) == 2
        for row in res.rows:
            assert row["seconds"] > 0
            assert row["mpo_max_rank"] <= 16
        assert res.metadata["fitted_exponent"] is not None
        assert res.metadata["repeats"] == 1

    @pytest.mark.parametrize("repeats", [0, -2])
    def test_needs_a_timed_repeat(self, repeats):
        with pytest.raises(ValueError, match=rf"^repeats must be >= 1, got {repeats}$"):
            scaling_benchmark([4], repeats=repeats)
