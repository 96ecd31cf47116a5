import _thread
import collections
import itertools
import json
import math
import os
import re
import select
import signal
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import check_record_form, random_noise
from oracles import TrialRng, bell_state, measure, project_polarization, reconciliation_bit
from entdist import cli, protocols, rng
from entdist.distribution import ghz_state, run_distribution, source_state
from entdist.elements import NoiseAngles, NoiseParams
from entdist.protocols import (
    ProtocolStats,
    SweepRow,
    baseline_direct,
    bbm92_records,
    bbm92_run,
    joint_outcome_distribution,
    qber_vs_theta_sweep,
    qss_run,
)
from entdist.qstate import W1, W2, BasisLabel, H, PureState, V

S = 1 / math.sqrt(2)
Z, X, Y = "Z", "X", "Y"


def pol_state(amp_h, amp_v, path=0):
    amps = {}
    if amp_h:
        amps[(BasisLabel(H, None, path),)] = amp_h
    if amp_v:
        amps[(BasisLabel(V, None, path),)] = amp_v
    return PureState(1, amps)


def three_sigma(p, n):
    return 3 * math.sqrt(p * (1 - p) / n)


class TestMeasure:
    def test_eigenstate_is_deterministic(self):
        state = pol_state(1.0, 0.0)
        for trial in range(20):
            bit, collapsed = measure(state, 0, Z, TrialRng(1, trial))
            assert bit == 0
            assert collapsed == state

    def test_born_rule_frequencies(self):
        state = pol_state(0.6, 0.8)
        hits = sum(
            measure(state, 0, Z, TrialRng(5, t))[0] == 0 for t in range(100000)
        )
        assert abs(hits / 100000 - 0.36) < three_sigma(0.36, 100000)

    def test_bell_pair_anticorrelated_in_z(self):
        psi = bell_state("psi_plus", 0, 1)
        first_bits = []
        for trial in range(200):
            stream = TrialRng(9, trial)
            bit_a, collapsed = measure(psi, 0, Z, stream)
            bit_b, _ = measure(collapsed, 1, Z, stream)
            assert bit_b == bit_a ^ 1
            first_bits.append(bit_a)
        assert 0 < sum(first_bits) < 200  # both outcomes occur

    def test_collapse_is_renormalized(self):
        state = pol_state(0.6, 0.8)
        _, collapsed = measure(state, 0, X, TrialRng(2, 0))
        assert collapsed.norm_squared() == pytest.approx(1.0, abs=1e-12)

    def test_numpy_generator_also_works(self):
        bit, _ = measure(pol_state(1.0, 0.0), 0, Z, np.random.default_rng(0))
        assert bit == 0


class TestJointDistribution:
    def test_matches_sequential_measurement_probabilities(self, rand):
        """Joint table equals the product of sequential Born factors."""
        for _ in range(20):
            amps = rand.normal(size=4) + 1j * rand.normal(size=4)
            amps /= np.linalg.norm(amps)
            labels = [
                (BasisLabel(p0, None, 0), BasisLabel(p1, None, 1))
                for p0 in (H, V)
                for p1 in (H, V)
            ]
            state = PureState(2, dict(zip(labels, amps)))
            for ba, bb in itertools.product((Z, X, Y), repeat=2):
                table = joint_outcome_distribution(state, [ba, bb])
                assert table.sum() == pytest.approx(1.0, abs=1e-12)
                for b0 in (0, 1):
                    p0, partial = project_polarization(state, 0, protocols.BASIS_VECTORS[ba][b0])
                    if p0 == 0:
                        continue
                    scale = 1 / math.sqrt(p0)
                    collapsed = PureState(
                        2, {k: v * scale for k, v in partial.items()}
                    )
                    for b1 in (0, 1):
                        p1, _ = project_polarization(collapsed, 1, protocols.BASIS_VECTORS[bb][b1])
                        assert table[b0 * 2 + b1] == pytest.approx(
                            p0 * p1, abs=1e-12
                        )

    @pytest.mark.parametrize("bases", [[Z], [Z, X, Z]])
    def test_rejects_wrong_number_of_bases(self, bases):
        with pytest.raises(ValueError, match=f"^need 2 bases, got {len(bases)}$"):
            joint_outcome_distribution(bell_state("phi_plus", 0, 1), bases)

    def test_rejects_unknown_basis(self):
        with pytest.raises(ValueError, match="unknown basis 'Q'"):
            joint_outcome_distribution(bell_state("phi_plus", 0, 1), [Z, "Q"])

    @pytest.mark.parametrize("basis", [["Z"], None, ("X",), b"Z", 0], ids=repr)
    def test_rejects_a_basis_that_is_no_name(self, basis):
        """Unhashable or not, a basis that is not one of the names is a
        ValueError naming it, before any spread plan is looked up."""
        with pytest.raises(ValueError, match=f"^unknown basis {re.escape(repr(basis))}, "):
            joint_outcome_distribution(bell_state("phi_plus", 0, 1), [basis, X])

    def test_rejects_a_photon_in_two_modes(self):
        """Terms in orthogonal frequencies or paths do not interfere: the
        source state (each photon in w1 and in w2 on its path) and a photon in
        (|H, path 3> + |V, path 4>)/sqrt(2) have no outcome table; the error
        names the photon whose modes differ."""
        refusal = "^photon 0 is in a superposition of frequencies or paths$"
        with pytest.raises(ValueError, match=refusal):
            joint_outcome_distribution(source_state([0, 5]), [Z, Z])
        amp = math.sqrt(0.5)
        two_paths = PureState(1, {(BasisLabel(H, None, 3),): amp, (BasisLabel(V, None, 4),): amp})
        with pytest.raises(ValueError, match=refusal):
            joint_outcome_distribution(two_paths, [X])
        one_path = PureState(1, {(BasisLabel(H, None, 3),): amp, (BasisLabel(V, None, 3),): amp})
        assert joint_outcome_distribution(one_path, [X]) == pytest.approx([1.0, 0.0])
        second = PureState(2, {
            (BasisLabel(H, None, 3), BasisLabel(H, W2, 5)): amp,
            (BasisLabel(V, None, 3), BasisLabel(V, W1, 5)): amp,
        })
        with pytest.raises(ValueError, match="^photon 1 is in a superposition"):
            joint_outcome_distribution(second, [X, X])

    def test_spread_plan_memo_is_bounded(self):
        """Past its bound of distinct (bases, labels) keys the memo
        evicts, and the tables it then plans anew are the same bits."""
        bound = protocols._spread_plan.cache_info().maxsize
        assert bound == protocols._PLANS_MAX
        pols = list(itertools.product((H, V), repeat=4))
        amp = 1 / math.sqrt(len(pols))
        state = PureState(4, {tuple(BasisLabel(p, None, j) for j, p in enumerate(ps)): amp for ps in pols})
        combos = list(itertools.product((Z, X, Y), repeat=4))
        assert len(combos) * len(pols) > bound
        first = [joint_outcome_distribution(state, combo).tobytes() for combo in combos]
        assert protocols._spread_plan.cache_info().currsize <= bound
        assert [joint_outcome_distribution(state, combo).tobytes() for combo in combos] == first
        assert protocols._spread_plan.cache_info().currsize <= bound

    def test_bell_state_correlations(self):
        psi = bell_state("psi_plus", 0, 1)
        phi = bell_state("phi_plus", 0, 1)
        # psi+ anticorrelated in Z, correlated in X; phi+ correlated in both
        assert joint_outcome_distribution(psi, [Z, Z]) == pytest.approx([0, 0.5, 0.5, 0])
        assert joint_outcome_distribution(psi, [X, X]) == pytest.approx([0.5, 0, 0, 0.5])
        assert joint_outcome_distribution(phi, [Z, Z]) == pytest.approx([0.5, 0, 0, 0.5])
        assert joint_outcome_distribution(phi, [X, X]) == pytest.approx([0.5, 0, 0, 0.5])


class TestGhzRule:
    """The one sifting and error rule every protocol scores its trials by,
    against the outcome table of the GHZ state it names."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_errors_are_the_impossible_outcomes(self, n):
        ports = tuple(range(10, 10 + n))
        for size in range(n + 1):
            for flips in itertools.combinations(range(n), size):
                state = ghz_state(ports, flips)
                for combo in itertools.product((Z, X, Y), repeat=n):
                    allowed = protocols._ghz_outcomes(combo, flips)
                    if allowed is None:
                        continue
                    table = joint_outcome_distribution(state, combo)
                    impossible = {out for out, p in enumerate(table) if p < 1e-12}
                    assert set(range(2**n)) - allowed == impossible, (flips, combo)

    @pytest.mark.parametrize(
        "bases, n, kept",
        [
            ((Z, X), 2, {"ZZ", "XX"}),
            ((X, Y), 3, {"XXX", "XYY", "YXY", "YYX"}),
            ((Z, Y), 3, {"ZZZ"}),
        ],
    )
    def test_sifted_combinations(self, bases, n, kept):
        for size in range(n + 1):
            for flips in itertools.combinations(range(n), size):
                sifted = {
                    "".join(combo)
                    for combo in itertools.product(bases, repeat=n)
                    if protocols._ghz_outcomes(combo, flips) is not None
                }
                assert sifted == kept, flips

    def test_sifting_arrays_follow_the_rule_and_are_read_only(self):
        flips = ((1,), (0,), (), (0, 1))
        combos, kept, wrong = protocols._sifting((Z, X), 2, flips)
        assert combos == tuple(itertools.product((Z, X), repeat=2))
        rules = [protocols._ghz_outcomes(combo, f) for f in flips for combo in combos]
        assert kept.tolist() == [rule is not None for rule in rules]
        assert wrong.reshape(len(rules), 4).tolist() == [
            [rule is not None and out not in rule for out in range(4)] for rule in rules
        ]
        assert protocols._sifting((Z, X), 2, flips)[1] is kept
        for cached in (kept, wrong):
            with pytest.raises(ValueError, match="read-only"):
                cached[0] = True

    def test_sifting_cache_is_bounded(self):
        bound = protocols._sifting.cache_info().maxsize
        assert bound == protocols._RULES_MAX
        for k in range(bound + 10):
            protocols._sifting((Z, X), 2, ((),) * (k + 1))
        assert protocols._sifting.cache_info().currsize <= bound


class TestReconciliation:
    def test_known_cases(self):
        assert reconciliation_bit((1, 2), Z, 1) == 1  # phi+, no flip
        assert reconciliation_bit((1, 1), Z, 1) == 0  # psi+, Z flips
        assert reconciliation_bit((1, 1), X, 0) == 0  # psi+ X-correlated
        assert reconciliation_bit((1, 1), X, 1) == 1

    def test_unknown_pattern(self):
        with pytest.raises(ValueError, match="unknown port pattern"):
            reconciliation_bit((1, 3), Z, 0)

    def test_rule_agrees_with_measurement_oracle(self):
        """Every nonzero-probability joint outcome must reconcile to equal
        key bits, for every pattern and basis."""
        from oracles import TWO_PARTY_REFERENCES

        for slots, bell in TWO_PARTY_REFERENCES.items():
            state = bell_state(bell, 0, 1)
            for basis in (Z, X):
                table = joint_outcome_distribution(state, [basis, basis])
                for idx, prob in enumerate(table):
                    if prob == 0:
                        continue
                    bit_a, bit_b = idx >> 1, idx & 1
                    assert bit_a == reconciliation_bit(slots, basis, bit_b)


class TestBbm92:
    def test_zero_qber_for_random_noise(self, rand):
        for _ in range(5):
            stats = bbm92_run(20000, random_noise(rand), random_noise(rand), seed=17)
            assert stats.qber == 0.0
            assert stats.n_errors == 0
            assert abs(stats.sift_rate - 0.5) < three_sigma(0.5, 20000)

    def test_deterministic_given_seed(self, rand):
        pa, pb = random_noise(rand), random_noise(rand)
        s1 = bbm92_run(5000, pa, pb, seed=23)
        s2 = bbm92_run(5000, pa, pb, seed=23)
        assert s1 == s2
        assert bbm92_records(5000, pa, pb, seed=23) == bbm92_records(5000, pa, pb, seed=23)

    def test_seed_changes_outcomes(self, rand):
        pa, pb = random_noise(rand), random_noise(rand)
        assert bbm92_run(5000, pa, pb, 1) != bbm92_run(5000, pa, pb, 2)

    def test_records_consistent_with_stats(self, rand):
        pa, pb = random_noise(rand), random_noise(rand)
        stats = bbm92_run(3000, pa, pb, seed=5)
        records = bbm92_records(3000, pa, pb, seed=5)
        assert len(records) == 3000
        assert sum(r.sifted for r in records) == stats.n_sifted
        assert sum(bool(r.error) for r in records) == stats.n_errors
        # BBM92 names a trial's basis by the first party's
        assert list(stats.sifted_by_basis) == list(stats.errors_by_basis) == [Z, X]
        for basis in (Z, X):
            in_basis = [r for r in records if r.bases[0] == basis]
            assert sum(r.sifted for r in in_basis) == stats.sifted_by_basis[basis]
            assert sum(bool(r.error) for r in in_basis) == stats.errors_by_basis[basis]

    def test_aggregation_is_order_independent(self, rand):
        records = bbm92_records(2000, random_noise(rand), random_noise(rand), seed=5)
        shuffled = list(records)
        np.random.default_rng(0).shuffle(shuffled)
        assert sum(r.sifted for r in shuffled) == sum(r.sifted for r in records)

    def test_pattern_frequencies_follow_distribution(self, rand):
        pa, pb = random_noise(rand), random_noise(rand)
        outcomes = run_distribution(pa, pb)
        records = bbm92_records(50000, pa, pb, seed=3)
        counts = {o.slots: 0 for o in outcomes}
        for r in records:
            counts[r.pattern] += 1
        for o in outcomes:
            if o.probability > 0.01:
                rate = counts[o.slots] / 50000
                assert abs(rate - o.probability) < three_sigma(o.probability, 50000)

    @pytest.mark.parametrize("n", [0, -3])
    @pytest.mark.parametrize("run", ["bbm92", "records", "baseline", "qss"])
    def test_rejects_nonpositive_pairs(self, run, n):
        with pytest.raises(ValueError, match=f"n_trials must be > 0, got {n}"):
            _COUNTED_RUNS[run](n)

    @pytest.mark.parametrize("n", [2.0, 1.5, np.float64(4), "3", None])
    @pytest.mark.parametrize("run", ["bbm92", "records", "baseline", "qss"])
    def test_rejects_a_trial_count_that_is_no_integer(self, run, n):
        """2.0 raised a TypeError from range, not a ValueError naming it."""
        with pytest.raises(ValueError, match=re.escape(f"n_trials must be an integer, got {n!r}")):
            _COUNTED_RUNS[run](n)

    @pytest.mark.parametrize("run", ["bbm92", "records", "baseline", "qss"])
    def test_an_integer_trial_count_runs_as_the_int(self, run):
        """True and a numpy integer run as 1 and 5 trials, counted in Python
        ints; True failed in numpy before."""
        for n, as_int in [(True, 1), (np.int64(5), 5), (np.uint8(5), 5)]:
            result = _COUNTED_RUNS[run](n)
            assert repr(result) == repr(_COUNTED_RUNS[run](as_int))
            if run != "records":
                assert type(result.n_trials) is int and result.n_trials == as_int

    def test_records_too_many_to_hold_are_a_memory_error_naming_their_count(self):
        """Records hold every trial: 2**62 ended in numpy's ValueError, which names no count."""
        with pytest.raises(MemoryError, match=f"^cannot hold {2**62} trials in memory$"):
            _COUNTED_RUNS["records"](2**62)

    @pytest.mark.parametrize("run", ["bbm92", "records", "baseline", "qss"])
    def test_a_trial_count_past_64_bits_is_a_value_error_naming_it(self, run):
        """Trial indices are 64-bit counters; runs count any count up to 2**64
        in spans, so no in-process test passes one in (2**53, 2**64]."""
        message = f"n_trials must be <= 2**64, got {2**64 + 1}"
        with pytest.raises(ValueError, match=re.escape(message)):
            _COUNTED_RUNS[run](2**64 + 1)


_IDENTITY = NoiseParams.identity()
_COUNTED_RUNS = {
    "bbm92": lambda n: bbm92_run(n, _IDENTITY, _IDENTITY, 0),
    "records": lambda n: bbm92_records(n, _IDENTITY, _IDENTITY, 0),
    "baseline": lambda n: baseline_direct(n, _IDENTITY, _IDENTITY, 0),
    "qss": lambda n: qss_run(n, [_IDENTITY] * 3, 0),
}
_RUNS = {
    "bbm92": lambda seed: bbm92_run(10, _IDENTITY, _IDENTITY, seed),
    "baseline": lambda seed: baseline_direct(10, _IDENTITY, _IDENTITY, seed),
    "qss": lambda seed: qss_run(10, [_IDENTITY] * 3, seed),
}


class TestSeedRange:
    """The generator keys on 64 bits; a seed outside them is an error, not
    folded onto another seed."""

    @pytest.mark.parametrize("run", sorted(_RUNS))
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_outside_64_bits_rejected(self, run, seed):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
            _RUNS[run](seed)

    @pytest.mark.parametrize("run", sorted(_RUNS))
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_64_bit_edges_accepted(self, run, seed):
        assert _RUNS[run](seed).seed == seed

    @pytest.mark.parametrize("run", sorted(_RUNS))
    @pytest.mark.parametrize("seed", [np.uint64(7), np.int64(7)], ids=["uint64", "int64"])
    def test_a_numpy_integer_seed_is_reported_as_the_int(self, run, seed):
        """The stats hold the int the trials were keyed by, not the caller's
        numpy scalar, which JSON cannot write."""
        stats = _RUNS[run](seed)
        assert type(stats.seed) is int and repr(stats) == repr(_RUNS[run](7))
        assert json.loads(cli._dump_json({"seed": stats.seed})) == {"seed": 7}

    @pytest.mark.parametrize("run", sorted(_RUNS))
    @pytest.mark.parametrize("seed", [1.9, 2.0, "7"])
    def test_a_seed_that_is_no_integer_is_rejected(self, run, seed):
        """1.9 would run seed 1's trials and report seed 1.9."""
        with pytest.raises(ValueError, match=f"seed must be an integer, got {seed!r}"):
            _RUNS[run](seed)


class TestQss:
    def test_zero_qber_xy(self, rand):
        for _ in range(3):
            noise = [random_noise(rand) for _ in range(3)]
            stats = qss_run(10000, noise, seed=31)
            assert stats.qber == 0.0
            assert abs(stats.sift_rate - 0.5) < three_sigma(0.5, 10000)

    def test_only_valid_combinations_sifted(self, rand):
        noise = [random_noise(rand) for _ in range(3)]
        stats = qss_run(5000, noise, seed=7)
        kept = {"XXX", "XYY", "YXY", "YYX"}
        for combo, count in stats.sifted_by_basis.items():
            if combo not in kept:
                assert count == 0
        assert sum(stats.sifted_by_basis[c] for c in kept) == stats.n_sifted

    def test_zy_mode_reports_zzz_correlation(self, rand):
        noise = [random_noise(rand) for _ in range(3)]
        stats = qss_run(8000, noise, seed=11, basis_pair="zy")
        assert stats.qber == 0.0
        assert stats.n_sifted == stats.sifted_by_basis["ZZZ"]
        assert abs(stats.sift_rate - 1 / 8) < three_sigma(1 / 8, 8000)

    def test_determinism(self, rand):
        noise = [random_noise(rand) for _ in range(3)]
        assert qss_run(2000, noise, seed=2) == qss_run(2000, noise, seed=2)

    @pytest.mark.parametrize("basis_pair", ["xy", "zy"])
    def test_per_combo_tallies_are_those_of_the_oracle_trials(self, basis_pair):
        """Every combo's sifted and error counts, in the order they print,
        from each trial's own draws; all 8 patterns are live."""
        noise, n, seed = TestBitIdentity.NOISE_3, 3000, 9
        bases = protocols.BASIS_PAIRS[basis_pair]
        live = [o for o in run_distribution(*noise) if o.probability > 0]
        assert len(live) == 8
        sifted = {"".join(combo): 0 for combo in itertools.product(bases, repeat=3)}
        errors, tables = dict(sifted), {}
        for t in range(n):
            _, bits, _, kept, wrong = TestBlocking.oracle_trial(live, bases, seed, t, tables)
            name = "".join(bases[(bits >> (2 - j)) & 1] for j in range(3))
            sifted[name] += kept
            errors[name] += wrong
        stats = qss_run(n, noise, seed, basis_pair)
        assert list(stats.sifted_by_basis.items()) == list(sifted.items())
        assert list(stats.errors_by_basis.items()) == list(errors.items())
        assert stats.n_sifted == sum(sifted.values()) > 0

    def test_validates_inputs(self):
        with pytest.raises(ValueError, match="3 noise"):
            qss_run(10, [NoiseParams.identity()] * 2, 0)
        with pytest.raises(ValueError, match="basis_pair"):
            qss_run(10, [NoiseParams.identity()] * 3, 0, basis_pair="xz")

    def test_a_basis_pair_that_is_no_name_is_a_value_error(self):
        """A list raised TypeError: unhashable type: 'list'."""
        message = "basis_pair must be one of ['xy', 'zy'], got ['xy']"
        with pytest.raises(ValueError, match=re.escape(message)):
            qss_run(10, [NoiseParams.identity()] * 3, 0, basis_pair=["xy"])


class TestBaseline:
    def test_identity_noise_zero_qber(self):
        stats = baseline_direct(20000, NoiseParams.identity(), NoiseParams.identity(), 1)
        assert stats.qber == 0.0

    def test_quarter_rotation_z_error_half(self):
        stats = baseline_direct(
            100000, NoiseAngles(math.pi / 4).to_params(), NoiseParams.identity(), 13
        )
        z_rate = stats.errors_by_basis["Z"] / stats.sifted_by_basis["Z"]
        assert abs(z_rate - 0.5) < three_sigma(0.5, stats.sifted_by_basis["Z"])

    def test_z_error_matches_sin_squared(self):
        theta = math.pi / 8
        stats = baseline_direct(
            100000, NoiseAngles(theta).to_params(), NoiseParams.identity(), 29
        )
        expected = math.sin(theta) ** 2
        z_rate = stats.errors_by_basis["Z"] / stats.sifted_by_basis["Z"]
        assert abs(z_rate - expected) < three_sigma(expected, stats.sifted_by_basis["Z"])

    def test_scheme_never_worse_than_baseline(self, rand):
        for _ in range(5):
            pa, pb = random_noise(rand), random_noise(rand)
            scheme = bbm92_run(5000, pa, pb, 3)
            base = baseline_direct(5000, pa, pb, 3)
            assert scheme.qber <= base.qber


class TestSweep:
    def test_sweep_rows(self):
        grid = [
            (NoiseAngles(t), NoiseAngles(0.0))
            for t in (0.0, math.pi / 8, math.pi / 4)
        ]
        rows = qber_vs_theta_sweep(grid, n_pairs=4000, seed=1)
        assert len(rows) == 3
        for row, (ang_a, _) in zip(rows, grid):
            assert row.theta_a == ang_a.theta
            assert row.scheme_qber == 0.0
            assert row.success_prob == pytest.approx(1.0, abs=1e-12)
        assert rows[0].baseline_qber == 0.0
        assert rows[1].baseline_qber < rows[2].baseline_qber

    def test_baseline_follows_sin_squared_curve(self):
        """At phi = 0 both sifted bases err at rate sin^2(theta), so the
        overall baseline QBER traces the analytic curve."""
        thetas = [0.0, 0.3, 0.6, 0.9, 1.2]
        grid = [(NoiseAngles(t), NoiseAngles(0.0)) for t in thetas]
        rows = qber_vs_theta_sweep(grid, n_pairs=20000, seed=8)
        for row, theta in zip(rows, thetas):
            expected = math.sin(theta) ** 2
            if expected == 0.0:
                assert row.baseline_qber == 0.0
            else:
                # sifted count is ~10000; 9000 makes the 3-sigma width conservative
                assert abs(row.baseline_qber - expected) < three_sigma(expected, 9000)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            qber_vs_theta_sweep([], 100, 0)

    @pytest.mark.parametrize(
        "empty", [lambda: iter([]), lambda: (pair for pair in ())], ids=["iterator", "generator"]
    )
    def test_empty_iterator_or_generator_rejected(self, empty):
        with pytest.raises(ValueError, match="^sweep grid is empty$"):
            qber_vs_theta_sweep(empty(), 10, 0)

    def test_a_grid_iterator_gives_the_rows_of_its_list(self):
        grid = [(NoiseAngles(0.2), NoiseAngles(1.1, 0.4)), (NoiseAngles(0.9), NoiseAngles(0.0))]
        rows = qber_vs_theta_sweep(grid, 500, 4)
        assert qber_vs_theta_sweep(iter(grid), 500, 4) == rows
        assert qber_vs_theta_sweep((pair for pair in grid), 500, 4) == rows


class TestBitIdentity:
    """Exact results at fixed seeds, captured from the per-combo searchsorted
    sampler with allocating splitmix64 that the current code replaced.  Any
    change to the draw layout or to how draws map to outcomes moves them."""

    NOISE_A = NoiseAngles(0.7, 1.3).to_params()
    NOISE_B = NoiseAngles(1.1, 4.0).to_params()
    NOISE_3 = [
        NoiseAngles(0.4, 0.5).to_params(),
        NoiseAngles(0.9, 2.5).to_params(),
        NoiseAngles(1.2, 5.0).to_params(),
    ]

    @staticmethod
    def assert_exact(stats, expected):
        assert stats == expected
        ints = [stats.n_trials, stats.n_sifted, stats.n_errors]
        ints += [*stats.sifted_by_basis.values(), *stats.errors_by_basis.values()]
        assert all(type(v) is int for v in ints)
        assert type(stats.sift_rate) is float
        assert stats.qber is None or type(stats.qber) is float

    def test_bbm92(self):
        self.assert_exact(
            bbm92_run(100000, self.NOISE_A, self.NOISE_B, seed=2024),
            ProtocolStats(
                protocol="bbm92", n_trials=100000, n_sifted=49738, n_errors=0, qber=0.0,
                sift_rate=0.49738, seed=2024,
                sifted_by_basis={"Z": 24674, "X": 25064}, errors_by_basis={"Z": 0, "X": 0},
            ),
        )

    def test_bbm92_records(self):
        """Patterns and raw outcomes, which bbm92's zero QBER does not show."""
        records = bbm92_records(20000, self.NOISE_A, self.NOISE_B, seed=5)
        counts = collections.Counter((r.pattern, r.outcomes) for r in records)
        assert dict(counts) == {
            ((1, 1), (0, 0)): 600, ((1, 1), (0, 1)): 611, ((1, 1), (1, 0)): 570,
            ((1, 1), (1, 1)): 595, ((1, 2), (0, 0)): 3452, ((1, 2), (0, 1)): 1189,
            ((1, 2), (1, 0)): 1164, ((1, 2), (1, 1)): 3462, ((2, 1), (0, 0)): 658,
            ((2, 1), (0, 1)): 228, ((2, 1), (1, 0)): 202, ((2, 1), (1, 1)): 629,
            ((2, 2), (0, 0)): 1740, ((2, 2), (0, 1)): 1663, ((2, 2), (1, 0)): 1605,
            ((2, 2), (1, 1)): 1632,
        }
        assert [(r.pattern, r.bases, r.outcomes) for r in records[:3]] == [
            ((1, 2), (X, Z), (1, 0)),
            ((2, 2), (X, Z), (0, 0)),
            ((2, 2), (Z, Z), (0, 1)),
        ]
        assert all(type(b) is int for r in records for b in r.outcomes)

    def test_baseline(self):
        self.assert_exact(
            baseline_direct(100000, self.NOISE_A, self.NOISE_B, seed=2025),
            ProtocolStats(
                protocol="baseline", n_trials=100000, n_sifted=49805, n_errors=20750,
                qber=0.4166248368637687, sift_rate=0.49805, seed=2025,
                sifted_by_basis={"Z": 25251, "X": 24554},
                errors_by_basis={"Z": 8350, "X": 12400},
            ),
        )

    def test_qss_xy(self):
        zero = dict.fromkeys(["XXX", "XXY", "XYX", "XYY", "YXX", "YXY", "YYX", "YYY"], 0)
        self.assert_exact(
            qss_run(50000, self.NOISE_3, seed=77, basis_pair="xy"),
            ProtocolStats(
                protocol="qss", n_trials=50000, n_sifted=25004, n_errors=0, qber=0.0,
                sift_rate=0.50008, seed=77,
                sifted_by_basis={**zero, "XXX": 6284, "XYY": 6226, "YXY": 6234, "YYX": 6260},
                errors_by_basis=zero,
            ),
        )

    def test_qss_zy(self):
        zero = dict.fromkeys(["ZZZ", "ZZY", "ZYZ", "ZYY", "YZZ", "YZY", "YYZ", "YYY"], 0)
        self.assert_exact(
            qss_run(50000, self.NOISE_3, seed=78, basis_pair="zy"),
            ProtocolStats(
                protocol="qss", n_trials=50000, n_sifted=6149, n_errors=0, qber=0.0,
                sift_rate=0.12298, seed=78,
                sifted_by_basis={**zero, "ZZZ": 6149}, errors_by_basis=zero,
            ),
        )

    def test_sweep(self):
        grid = [
            (NoiseAngles(ta, 0.3), NoiseAngles(tb, 1.7)) for ta in (0.2, 1.0) for tb in (0.5, 1.4)
        ]
        expected = [
            (0.2, 0.5, 0.1884796238244514, 1.0),
            (0.2, 1.4, 0.5117952818872451, 0.9999999999999999),
            (1.0, 0.5, 0.7350019864918553, 0.9999999999999997),
            (1.0, 1.4, 0.4909520062942565, 0.9999999999999994),
        ]
        rows = qber_vs_theta_sweep(grid, 5000, seed=9)
        assert rows == [
            SweepRow(theta_a=ta, phi_a=0.3, theta_b=tb, phi_b=1.7, scheme_qber=0.0,
                     baseline_qber=base, success_prob=success)
            for ta, tb, base, success in expected
        ]
        assert all(type(r.baseline_qber) is float for r in rows)


def _searchsorted_reference(row, u):
    return np.minimum(np.searchsorted(row, u, side="right"), len(row) - 1)


def _decoded(words):
    """The uniforms rng.uniforms makes of the given words: (w >> 11) * 2**-53."""
    return (np.asarray(words, dtype=np.uint64) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def _words_at(thresholds, rand):
    """Words whose top 53 bits are ceil(c * 2**53), computed exactly, and one
    below it, for every threshold c, with random low bits; plus the extremes
    and random words."""
    tops = set()
    for c in thresholds:
        t = math.ceil(Fraction(float(c)) * 2 ** 53)
        tops.update(top for top in (t, t - 1) if 0 <= top < 2 ** 53)
    tops = np.array(sorted(tops | {0, 2 ** 53 - 1}), dtype=np.uint64)
    low = rand.integers(0, 2 ** 11, size=len(tops), dtype=np.uint64)
    extremes = np.array([0, 2 ** 11 - 1, 2 ** 64 - 2 ** 11, 2 ** 64 - 1], dtype=np.uint64)
    random = rand.integers(0, 2 ** 64 - 1, size=200, dtype=np.uint64, endpoint=True)
    return np.concatenate([tops << np.uint64(11), (tops << np.uint64(11)) | low, extremes, random])


class TestSamplers:
    """rng.sample, which counts on the words, against searchsorted on the
    decoded uniforms."""

    @staticmethod
    def fixed_words(monkeypatch, values):
        values = np.asarray(values, dtype=np.uint64)
        monkeypatch.setattr(rng, "words", lambda seed, trials, draw: values.copy())

    def test_outcomes_match_searchsorted(self, monkeypatch, rand):
        below, above = np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)
        tiny = np.nextafter(0.0, 1.0)  # the smallest subnormal
        probs = [
            [0.25, 0.25, 0.25, 0.25],
            [0.5, 0.0, 0.0, 0.5],          # repeated thresholds
            [0.0, 0.0, 1.0, 0.0],          # c = 0
            [0.1, 0.2, 0.3, below - 0.6],
            [1.0, 0.0, 0.0, 0.0],
            [tiny, 1e-310, 0.5, 0.5],      # subnormal thresholds
            *rand.dirichlet(np.ones(4), size=3),
        ]
        rows = [np.cumsum(p) for p in probs]
        rows[3][-1] = below   # cumulative rows that end just below 1 ...
        rows.append(np.array([0.3, 0.6, 0.9, above]))  # ... or just above it
        rows.append(np.array([0.3, 0.6, below, below]))
        tables = np.array(rows)
        assert tables[5, 0] == tiny and 0 < tables[5, 1] < np.finfo(float).tiny
        w = _words_at(np.concatenate([tables.ravel(), [0.5]]), rand)
        combo = np.repeat(np.arange(len(tables)), len(w))
        w_all = np.tile(w, len(tables))
        self.fixed_words(monkeypatch, w_all)
        keys = rng.TrialKeys(0, np.arange(len(w_all)))
        out = rng.sample(keys, protocols._DRAW_OUTCOME, tables, combo)
        u_all = _decoded(w_all)
        expected = [_searchsorted_reference(tables[c], x) for c, x in zip(combo, u_all)]
        assert out.tolist() == expected

    def test_one_threshold_matches_searchsorted(self, monkeypatch, rand):
        """One threshold for every trial is compared on the unshifted words:
        the bit is u >= c, and no trial reaches a c above the largest u."""
        below, above = np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)
        for c in (0.0, 5e-324, 1e-310, 0.3, 0.5, below, 1.0, above, 2.0):
            tables = np.array([[0.25, 1.0], [c, max(c, 1.0)]])
            w = _words_at([c, 0.25], rand)
            self.fixed_words(monkeypatch, w)
            keys = rng.TrialKeys(0, np.arange(len(w)))
            for row in (1, np.int64(1), np.array(1)):
                out = rng.sample(keys, protocols._DRAW_BASIS, tables, row)
                assert out.dtype == np.uint8
                assert out.tolist() == _searchsorted_reference(tables[1], _decoded(w)).tolist(), c

    def test_patterns_match_guarded_searchsorted(self, monkeypatch, rand):
        for probs in (np.array([0.3, 0.3, 0.2, 0.2]), rand.dirichlet(np.ones(4)),
                      np.array([0.5, 0.0, 0.5]), np.array([1.0])):
            cum = np.cumsum(probs)
            w = _words_at(cum, rand)
            self.fixed_words(monkeypatch, w)
            guarded = cum.copy()
            guarded[-1] = max(guarded[-1], 1.0)
            keys = rng.TrialKeys(0, np.arange(len(w)))
            out = rng.sample(keys, protocols._DRAW_PATTERN, cum[None])
            assert out.tolist() == np.searchsorted(guarded, _decoded(w), side="right").tolist()


class TestBlocking:
    """The samplers reduce words one rng._BLOCK slice at a time; results across
    the slice boundaries are those of each trial's own draws."""

    A, B, NOISE_3 = TestBitIdentity.NOISE_A, TestBitIdentity.NOISE_B, TestBitIdentity.NOISE_3

    @pytest.mark.parametrize("row_dtype", [np.intp, np.uint8])
    def test_per_row_sample_across_a_block_boundary(self, rand, row_dtype):
        n = 2**15 + 7
        tables = np.cumsum(rand.dirichlet(np.ones(4), size=6), axis=1)
        rows = rand.integers(0, len(tables), size=n).astype(row_dtype)
        u = rng.uniforms(3, np.arange(n), protocols._DRAW_OUTCOME)
        expected = np.empty(n, dtype=int)
        for r, table in enumerate(tables):
            expected[rows == r] = _searchsorted_reference(table, u[rows == r])
        out = rng.sample(rng.TrialKeys(3, np.arange(n)), protocols._DRAW_OUTCOME, tables, rows)
        assert out.tolist() == expected.tolist()

    @staticmethod
    def oracle_trial(live, bases, seed, t, tables):
        """Trial t of _trials from its own TrialRng draws in the documented
        layout: (pattern, basis combo, outcome, sifted, error).  tables holds
        the cumulative rows and GHZ rules already built for these live
        patterns and bases."""
        n = live[0].conditional.n_photons
        pattern = 0
        if len(live) > 1:
            if "patterns" not in tables:
                tables["patterns"] = np.cumsum([o.probability for o in live])
            u = TrialRng(seed, t, protocols._DRAW_PATTERN).uniform()
            pattern = int(_searchsorted_reference(tables["patterns"], u))
        bits = [int(TrialRng(seed, t, protocols._DRAW_BASIS + j).uniform() >= 0.5) for j in range(n)]
        combo = tuple(bases[b] for b in bits)
        if (pattern, combo) not in tables:
            tables[pattern, combo] = (
                np.cumsum(joint_outcome_distribution(live[pattern].conditional, combo)),
                protocols._ghz_outcomes(combo, live[pattern].flips),
            )
        cum, rule = tables[pattern, combo]
        outcome = int(_searchsorted_reference(cum, TrialRng(seed, t, protocols._DRAW_OUTCOME).uniform()))
        sifted = rule is not None
        return pattern, int("".join(map(str, bits)), 2), outcome, sifted, sifted and outcome not in rule

    @staticmethod
    def per_trial(arrays, photons):
        """_trials' per-trial columns as oracle_trial's tuples: the pattern,
        the basis bits of the row, the outcome, and kept[row] and
        wrong[row, outcome] from the run's tally."""
        pattern, row, out, (_, _, _, kept, wrong) = arrays
        assert (row >> photons).tolist() == pattern.tolist()
        columns = (pattern, row & (2**photons - 1), out, kept[row], wrong[row, out])
        return list(zip(*(column.tolist() for column in columns)))

    @pytest.mark.parametrize("n", [2**15 - 1, 2**15 + 1, 2**16 + 3])
    def test_runs_match_per_trial_oracle(self, monkeypatch, n):
        # every trial of the run that crosses one block boundary; around each boundary of the others
        edges = (0, rng._BLOCK, 2 * rng._BLOCK, n)
        window = sorted({t for e in edges for t in range(e - 32, e + 32) if 0 <= t < n})
        trials = range(n) if n == 2**15 + 1 else window
        for noise, bases, seed, n_live in [
            ((self.A, self.B), ("Z", "X"), 41, 4),
            # all 8 QSS patterns live: the index of wrong, (row << 3) | out, needs 9 bits
            (self.NOISE_3, ("X", "Y"), 42, 8),
        ]:
            live, arrays = protocols._distributed_trials(noise, bases, n, seed)
            assert len(live) == n_live
            per_trial = self.per_trial(arrays, len(noise))
            got = [per_trial[t] for t in trials]
            tables = {}
            assert got == [self.oracle_trial(live, bases, seed, t, tables) for t in trials]

        def runs():
            return bbm92_run(n, self.A, self.B, 41), qss_run(n, self.NOISE_3, 42)

        blocked = runs()
        for block in (n, 4093):  # one block, then many
            monkeypatch.setattr(rng, "_BLOCK", block)
            assert runs() == blocked

    N_COUNTED = 4093 + 50  # two blocks of 4093, the second of 50 trials
    RUNS = [((A, B), ("Z", "X"), 41), (NOISE_3, ("X", "Y"), 42)]

    @pytest.mark.parametrize("block", [1, 7, 4093])
    def test_counts_are_the_bincount_of_the_oracle_trials(self, workers, monkeypatch, block):
        """counts[row, out] sums one np.bincount per block: the same table on
        any block size and worker count as the oracle's trials give."""
        n = self.N_COUNTED
        expected = []
        for noise, bases, seed in self.RUNS:
            live = [o for o in run_distribution(*noise) if o.probability > 0]
            photons, tables, index = len(noise), {}, []
            for t in range(n):
                pattern, bits, out, _, _ = self.oracle_trial(live, bases, seed, t, tables)
                index.append((((pattern << photons) | bits) << photons) | out)
            size = len(live) << 2 * photons
            expected.append(np.bincount(index, minlength=size).reshape(-1, 2**photons).tolist())
        monkeypatch.setattr(rng, "_BLOCK", block)
        for k in (1, 2, 3):
            workers(k)
            for (noise, bases, seed), table in zip(self.RUNS, expected):
                *_, (_, counts, _, _, _) = protocols._distributed_trials(noise, bases, n, seed)[1]
                assert counts.tolist() == table, (k, seed)


class TestWorkers:
    """rng runs each block loop on up to rng._WORKERS threads; the trials and
    stats are the same bits on any number of them."""

    A, B, NOISE_3 = TestBitIdentity.NOISE_A, TestBitIdentity.NOISE_B, TestBitIdentity.NOISE_3
    N = 2**16 + 3

    def runs(self):
        return (
            bbm92_run(self.N, self.A, self.B, 41),
            qss_run(self.N, self.NOISE_3, 42),
            baseline_direct(self.N, self.A, self.B, 43),
        )

    def test_results_do_not_depend_on_the_worker_count(self, workers, monkeypatch):
        monkeypatch.setattr(rng, "_BLOCK", 4093)  # 17 blocks, the last of 51 trials
        results = []
        for k in (1, 2, 3):
            workers(k)
            trials = []
            for noise, bases, seed in TestBlocking.RUNS:
                arrays = protocols._distributed_trials(noise, bases, self.N, seed)[1]
                trials.append((TestBlocking.per_trial(arrays, len(noise)), arrays[3][1].tolist()))
            results.append((trials, self.runs()))
        assert results[1] == results[0] and results[2] == results[0]

    def test_threads_running_at_once_get_the_serial_results(self):
        """Four callers, each with helpers of its own, get the serial results."""
        expected = bbm92_run(self.N, self.A, self.B, 41)
        results, errors = {}, []

        def work(k):
            try:
                results[k] = bbm92_run(self.N, self.A, self.B, 41)
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and not errors
        assert results == dict.fromkeys(range(4), expected)

    def test_no_helper_is_alive_once_a_large_run_returns(self, workers, monkeypatch,
                                                         thread_starts):
        """Nor once any of its block loops has returned."""
        workers(2)
        fork, alive = rng._fork, []

        def checked(*args):
            fork(*args)
            alive.append(len(thread_starts.started) - len(thread_starts.returned))

        monkeypatch.setattr(rng, "_fork", checked)
        bbm92_run(1_000_000, self.A, self.B, 5)
        assert thread_starts.started and alive == [0] * len(alive) and len(alive) > 1

    def test_runs_where_no_thread_can_start_give_the_serial_results(self, workers, monkeypatch,
                                                                    capsys):
        """When no thread can start, start_new_thread raises RuntimeError and
        the caller takes every block: the same stats, and the CLI's stdout."""
        argv = ["bbm92", "--pairs", "100000", "--seed", "7", "--theta-a", "0.7", "--theta-b", "1"]
        workers(2)
        expected = self.runs(), cli.main(argv), capsys.readouterr()
        refused = []

        def refuse(function, args):
            refused.append(function)
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(_thread, "start_new_thread", refuse)
        assert (self.runs(), cli.main(argv), capsys.readouterr()) == expected
        assert refused

    @pytest.mark.parametrize("ran_before", [False, True])
    def test_a_run_from_an_atexit_handler_gives_the_serial_stats(self, ran_before):
        """A run from an atexit handler gives the serial stats, whether or not
        the process made a run before.  It may use helper threads: on Python
        3.11 a thread still starts inside an atexit handler."""
        script = "\n".join([
            "import atexit, sys",
            "sys.path.insert(0, sys.argv[1])",
            "from entdist.elements import NoiseAngles",
            "from entdist.protocols import bbm92_run",
            "noise = NoiseAngles(0.7, 1.3).to_params(), NoiseAngles(1.1, 4.0).to_params()",
            "args = (2**16 + 3, *noise, 41)",
            "atexit.register(lambda: print(repr(bbm92_run(*args))))",
            "if sys.argv[2] == 'True':",
            "    bbm92_run(*args)",
        ])
        src = Path(protocols.__file__).resolve().parent.parent
        proc = subprocess.run([sys.executable, "-c", script, str(src), str(ran_before)],
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == repr(bbm92_run(self.N, self.A, self.B, 41)) + "\n"

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_a_forked_child_gets_the_parents_stats(self, workers):
        """A child forked after the parent's runs started helpers starts its own."""
        workers(2)
        expected = bbm92_run(self.N, self.A, self.B, 41)
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child: report and leave without running pytest's exit
            try:
                os.write(write_end, repr(bbm92_run(self.N, self.A, self.B, 41)).encode())
            finally:
                os._exit(0)
        os.close(write_end)
        try:
            ready, _, _ = select.select([read_end], [], [], 60)
            if not ready:
                os.kill(pid, signal.SIGKILL)
            reply = os.read(read_end, 1 << 16).decode() if ready else "no reply in 60 s"
        finally:
            os.close(read_end)
            os.waitpid(pid, 0)
        assert reply == repr(expected)


@pytest.mark.parametrize(
    "make, fields",
    [
        (
            lambda: bbm92_records(10, _IDENTITY, _IDENTITY, 3)[0],
            ("trial", "pattern", "bases", "outcomes", "sifted", "error"),
        ),
        (
            lambda: bbm92_run(100, _IDENTITY, _IDENTITY, 3),
            ("protocol", "n_trials", "n_sifted", "n_errors", "qber", "sift_rate", "seed",
             "sifted_by_basis", "errors_by_basis"),
        ),
        (
            lambda: qber_vs_theta_sweep([(NoiseAngles(0.3), NoiseAngles(0.0))], 100, 3)[0],
            ("theta_a", "phi_a", "theta_b", "phi_b", "scheme_qber", "baseline_qber",
             "success_prob"),
        ),
    ],
    ids=["TrialRecord", "ProtocolStats", "SweepRow"],
)
def test_record_form(make, fields):
    """Each protocol record is immutable, with its fields in their old order."""
    check_record_form(make(), fields)


def test_bbm92_memory_peak():
    """Blocked sampling keeps at most one words array of the run live."""
    noise = NoiseAngles(0.7, 1.3).to_params(), NoiseAngles(1.1, 4.0).to_params()
    bbm92_run(1000, *noise, 5)
    tracemalloc.start()
    try:
        bbm92_run(1_000_000, *noise, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 2**20


def test_bbm92_memory_peak_is_bounded_by_its_span():
    """1e7 pairs are keyed, drawn and counted 2**20 at a time: the peak is
    that of one span, not the 182 MiB of every trial's keys and columns."""
    noise = NoiseAngles(0.7, 1.3).to_params(), NoiseAngles(1.1, 4.0).to_params()
    bbm92_run(1000, *noise, 5)
    tracemalloc.start()
    try:
        bbm92_run(10_000_000, *noise, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * 2**20


class TestSpans:
    """_trials sums the count tables of its spans as integers, so a run's
    stats are the same bits whatever the span size."""

    A, B, NOISE_3 = TestBitIdentity.NOISE_A, TestBitIdentity.NOISE_B, TestBitIdentity.NOISE_3

    def runs(self, n):
        return (
            bbm92_run(n, self.A, self.B, 41),
            baseline_direct(n, self.A, self.B, 43),
            qss_run(n, self.NOISE_3, 42, "xy"),
            qss_run(n, self.NOISE_3, 44, "zy"),
        )

    @pytest.mark.parametrize("span", [2**15, 3 * 2**15])
    def test_stats_are_the_same_bits_across_span_edges(self, workers, monkeypatch, span):
        counts = [span - 1, span, span + 1, 2 * span + 1]
        assert max(counts) < protocols._SPAN  # the reference runs are one span each
        expected = [repr(self.runs(n)) for n in counts]
        monkeypatch.setattr(protocols, "_SPAN", span)
        for k in (1, 2):
            workers(k)
            assert [repr(self.runs(n)) for n in counts] == expected, k

    def test_records_are_one_span_of_every_trial(self, monkeypatch):
        """bbm92_records keeps every trial's columns, whatever the span."""
        expected = bbm92_records(2**15 + 3, self.A, self.B, 41)
        monkeypatch.setattr(protocols, "_SPAN", 2**10)
        assert bbm92_records(2**15 + 3, self.A, self.B, 41) == expected


def test_bbm92_draw_layout(monkeypatch):
    """One pattern, two basis and one outcome draw per trial: indices 0, 1, 2, 16,
    one word per trial each, the words of trials 0..n-1 however they are keyed."""
    calls = []
    original = rng.words

    def recording(seed, trials, draw):
        result = original(seed, trials, draw)
        calls.append((seed, draw, result.copy()))  # the samplers reduce words in place
        return result

    monkeypatch.setattr(rng, "words", recording)
    bbm92_run(1000, NoiseAngles(0.7, 1.3).to_params(), NoiseAngles(1.1, 4.0).to_params(), 5)
    assert sorted(draw for _, draw, _ in calls) == [0, 1, 2, 16]
    for seed, draw, result in calls:
        assert seed == 5
        assert np.array_equal(result, original(5, np.arange(1000), draw))
        assert result.size == 1000
