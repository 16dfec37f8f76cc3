"""The jump between sweeps: ``orchestrator.fit_state`` extrapolates the store's messages.

A try proposes a store, current + t (current - old), and the fit either
keeps the proposal, whose every q-density is proper, or keeps its own store,
which no try writes: its messages and its kept q-moments stay as the last
sweep left them.  The jump shortens the way to the fixed point of the plain
sweep and does not move that point: with jumps disabled (a cap of 0), a fit
at a tight tolerance ends where the default fit does.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import vmpfpca.graph as fg
import vmpfpca.orchestrator as orchestrator
from vmpfpca.expfam import DegenerateMessageError
from vmpfpca.orchestrator import FitConfig, fit
from vmpfpca.postprocess import finalize
from vmpfpca.simulate import SimConfig, generate
from test_graph import check_read
from test_properties import derandomised
from test_snap import BENCHMARK_CONFIG, benchmark_dataset


def proper(store) -> bool:
    """Whether q(nu), every q(zeta_i) and every variance and auxiliary q-density is proper."""
    try:
        np.linalg.cholesky(store.q_nu()[1])
        np.linalg.cholesky(store.q_zeta()[1])
    except np.linalg.LinAlgError:
        return False
    variances = store.q_variances()
    return max(variances[0::2]) < -1.0 and max(variances[1::2]) < 0.0


def watch_jumps(monkeypatch):
    """Patch ``_jump`` to record, per try, whether it proposed a store, whether the store
    the fit keeps, the proposal or its own, is proper, and whether its own store still
    holds the last sweep's messages."""
    tries = []
    original = orchestrator._jump

    def watched(store, metric, older, old, current):
        jump = original(store, metric, older, old, current)
        unchanged = np.array_equal(store.message_vector(), current)
        tries.append((jump is not None, proper(store if jump is None else jump[1]), unchanged))
        return jump

    monkeypatch.setattr(orchestrator, "_jump", watched)
    return tries


def relative(x, y):
    return float(np.abs(x - y).max() / np.abs(x).max())


class TestSameFixedPoint:
    @pytest.mark.parametrize("case", ["dense", "study"])
    def test_fit_without_jumps_ends_at_the_same_fixed_point(self, case, tmp_path, monkeypatch):
        if case == "dense":
            dataset = benchmark_dataset(tmp_path, 20, (150, 300))
            config = FitConfig(**BENCHMARK_CONFIG, tol=1e-9, max_iter=3000)
        else:
            dataset, _ = generate(SimConfig(num_curves=50, seed=0))
            config = FitConfig(tol=1e-9, max_iter=3000)
        jumped = fit(dataset, config)
        monkeypatch.setattr(orchestrator, "_JUMP_CAP", 0.0)
        plain = fit(dataset, config)
        assert jumped.converged and plain.converged
        assert jumped.iterations < plain.iterations / 2
        first, second = finalize(jumped), finalize(plain)
        assert relative(first.fitted, second.fitted) < 1e-9
        assert first.noise_precision_mean == pytest.approx(second.noise_precision_mean, rel=1e-9)


class TestJump:
    @staticmethod
    def swept(sweeps=8):
        """A study fit's store after a few sweeps, and its message vector."""
        dataset, _ = generate(SimConfig(num_curves=20, seed=4))
        store = fit(dataset, FitConfig(max_iter=sweeps)).store
        return store, store.message_vector()

    METRIC = 1e-6  # a last sweep's metric at which the radius does not bound a jump

    @staticmethod
    def shrinking(current, direction, rho):
        """Earlier vectors whose last two changes are ``rho`` times apart, along ``direction``."""
        old = current - direction
        return old - direction / rho, old

    def test_message_vector_round_trip_is_exact(self):
        store, vector = self.swept()
        built = store.with_messages(vector.copy())
        assert np.array_equal(built.message_vector(), vector)
        assert built.chains == store.chains
        assert {type(x) for chain in built.chains for pair in chain for x in pair} == {float}

    def test_jump_is_the_capped_geometric_limit(self):
        store, current = self.swept()
        direction = np.zeros_like(current)
        direction[: store.nu_eta1.size] = 1e-3  # along both messages' eta1 to nu
        step, proposal = orchestrator._jump(
            store, self.METRIC, *self.shrinking(current, direction, 0.5), current
        )
        assert step == pytest.approx(1.0)  # 0.5 / (1 - 0.5)
        assert np.allclose(proposal.message_vector(), current + direction, rtol=1e-12, atol=1e-15)
        older, old = self.shrinking(current, direction, 0.999)
        step, proposal = orchestrator._jump(store, self.METRIC, older, old, current)
        assert step == orchestrator._JUMP_CAP
        # the proposal's reads are fresh inversions of its own q-densities
        for node in (fg.NU, fg.ZETA):
            check_read(proposal, node)
        eta1, precision = proposal.q_nu()
        assert np.allclose(precision @ proposal.read_q_nu(fg.LIKELIHOOD)[0], eta1)
        # a last sweep that changed a q-density by 5% bounds the jump at twice its change
        step, proposal = orchestrator._jump(store, 0.05, older, old, current)
        assert step == pytest.approx(orchestrator._JUMP_RADIUS / 0.05)
        assert np.allclose(proposal.message_vector(), current + step * direction)

    @pytest.mark.parametrize("rho, turn", [(1.05, False), (0.5, True)], ids=["growing", "turning"])
    def test_no_jump_unless_the_changes_align_and_shrink(self, rho, turn):
        store, current = self.swept()
        direction = np.zeros_like(current)
        direction[:10] = 1e-3
        older, old = self.shrinking(current, direction, rho)
        if turn:  # the change before the last one points another way
            older = older.copy()
            older[10:20] -= 1e-2
        assert orchestrator._jump(store, self.METRIC, older, old, current) is None
        assert np.array_equal(store.message_vector(), current)

    def test_improper_q_nu_skips_the_jump(self, monkeypatch):
        store, current = self.swept()
        nu_size = store.nu_eta1.size
        direction = np.zeros_like(current)
        # shrink both precisions of nu by a hundredth a sweep
        direction[nu_size : nu_size + store.nu_precision.size] = (
            0.01 * current[nu_size : nu_size + store.nu_precision.size]
        )
        older, old = self.shrinking(current, -direction, 0.999)
        monkeypatch.setattr(orchestrator, "_JUMP_CAP", 1e3)  # the jump flips q(nu)'s precision
        assert orchestrator._jump(store, self.METRIC, older, old, current) is None
        assert np.array_equal(store.message_vector(), current)
        monkeypatch.setattr(orchestrator, "_JUMP_CAP", 10.0)  # 0.9 times the precision
        jump = orchestrator._jump(store, self.METRIC, older, old, current)
        assert jump is not None
        assert proper(jump[1])

    def test_improper_variance_skips_the_jump(self):
        store, current = self.swept()
        direction = np.zeros_like(current)
        direction[-1] = 1e8  # eta2 of the last chain's iterated message to its auxiliary node
        older, old = self.shrinking(current, direction, 0.999)
        assert orchestrator._jump(store, self.METRIC, older, old, current) is None
        assert np.array_equal(store.message_vector(), current)

    @pytest.mark.parametrize("end", ["turning", "improper-variance", "improper-q-nu", "kept"])
    def test_a_try_leaves_the_fits_store_as_it_was(self, end, monkeypatch):
        # however a try ends, the store it extrapolates keeps its messages bitwise and
        # its kept q-moments: its next reads return the very arrays its last reads did
        store, current = self.swept()
        reads = store.read_q_nu(fg.LIKELIHOOD), store.read_q_zeta()
        nu_precision = slice(store.nu_eta1.size, store.nu_eta1.size + store.nu_precision.size)
        direction = np.zeros_like(current)
        if end == "improper-variance":
            direction[-1] = 1e8  # eta2 of the last chain's iterated message to its auxiliary node
        elif end == "improper-q-nu":  # 999 shrinking changes flip q(nu)'s precision
            direction[nu_precision] = -0.01 * current[nu_precision]
            monkeypatch.setattr(orchestrator, "_JUMP_CAP", 1e3)
        else:
            direction[: store.nu_eta1.size] = 1e-3
        older, old = self.shrinking(current, direction, 0.999)
        if end == "turning":  # the change before the last one points another way
            older[nu_precision][:10] -= 1e-2
        jump = orchestrator._jump(store, self.METRIC, older, old, current)
        assert (jump is not None) == (end == "kept")
        assert store.message_vector().tobytes() == current.tobytes()
        for read, kept in zip((store.read_q_nu(fg.LIKELIHOOD), store.read_q_zeta()), reads):
            assert all(array is kept_array for array, kept_array in zip(read, kept))
        if jump is not None:  # a kept proposal's reads are its own: read-only and fresh
            for node in (fg.NU, fg.ZETA):
                check_read(jump[1], node)


class TestSchedule:
    def test_iterations_and_history_count_sweeps_only(self, monkeypatch):
        tries = watch_jumps(monkeypatch)
        sweeps = []
        original = orchestrator._sweep
        monkeypatch.setattr(
            orchestrator, "_sweep", lambda *args: sweeps.append(1) or original(*args)
        )
        dataset, _ = generate(SimConfig(num_curves=50, seed=0))
        state = fit(dataset, FitConfig())
        assert state.converged
        assert any(kept for kept, _, _ in tries)
        assert state.iterations == len(state.history) == len(sweeps)

    def test_at_most_one_try_in_each_spacing(self, monkeypatch):
        # a try follows every _JUMP_SPACING-th sweep but the fit's last, whether the
        # fit converges there or runs out of sweeps, and whatever the tries before kept
        sweeps, calls = [], []
        sweep, jump = orchestrator._sweep, orchestrator._jump
        monkeypatch.setattr(orchestrator, "_sweep", lambda state: sweeps.append(1) or sweep(state))
        monkeypatch.setattr(
            orchestrator, "_jump", lambda *args: calls.append(len(sweeps)) or jump(*args)
        )
        dataset, _ = generate(SimConfig(num_curves=50, seed=0))
        spacing = orchestrator._JUMP_SPACING
        for config in (FitConfig(), FitConfig(max_iter=4 * spacing)):
            sweeps.clear()
            calls.clear()
            state = fit(dataset, config)
            assert state.converged == (config.max_iter > 4 * spacing)
            assert calls == list(range(spacing, state.iterations, spacing))

    @pytest.mark.parametrize(
        "sim, options, plain_sweeps",
        [
            # two true components and three surplus ones
            (SimConfig(50, seed=2), {"num_eigen": 5}, 216),
            # capped jumps far from the fixed point took these two onto a mode
            # contracting by 0.9965 a sweep, 1893 and 572 sweeps without the radius
            (SimConfig(3, obs_range=(29, 33), seed=9217), {}, 144),
            (SimConfig(3, obs_range=(10, 20), seed=201), {}, 231),
            # and this one to a sweep whose q(nu) was not positive definite
            (SimConfig(2, obs_range=(24, 43), seed=336), {"num_eigen": 5, "num_splines": 5}, 139),
        ],
        ids=["five-components", "three-curves-a", "three-curves-b", "two-curves"],
    )
    def test_fits_the_plain_sweep_finishes_converge_within_the_default_budget(
        self, sim, options, plain_sweeps
    ):
        dataset, _ = generate(sim)
        state = fit(dataset, FitConfig(**options))
        assert state.converged
        assert state.iterations <= plain_sweeps

    def test_skipped_jumps_at_a_huge_cap(self, monkeypatch):
        # jumps of up to 1e6 times the last change, with no radius: on acceptance
        # criterion 2's frozen-score fit, whose slow mode contracts by up to 0.999
        # a sweep, two would leave q(nu) not positive definite; they are skipped
        # and the fit still converges
        tries = watch_jumps(monkeypatch)
        failures = []
        original = fg.MessageStore.read_q_nu

        def reading(store, reader):
            try:
                return original(store, reader)
            except DegenerateMessageError:
                failures.append(fg.NU)
                raise

        monkeypatch.setattr(fg.MessageStore, "read_q_nu", reading)
        monkeypatch.setattr(orchestrator, "_JUMP_CAP", 1e6)
        monkeypatch.setattr(orchestrator, "_JUMP_RADIUS", np.inf)
        dataset, _ = generate(SimConfig(num_curves=12, seed=5))
        config = FitConfig(
            num_eigen=1, num_splines=8, freeze_scores_at_zero=True, tol=1e-12, max_iter=4000
        )
        state = fit(dataset, config)
        assert state.converged
        assert "nu" in failures
        assert all(proper and unchanged for _, proper, unchanged in tries)
        assert not all(kept for kept, _, _ in tries)


@st.composite
def small_fits(draw):
    """A simulated dataset of 2-15 curves, so n < P = 12 coefficients included, and L = 1-4."""
    num_curves = draw(st.integers(2, 15))
    low = draw(st.integers(2, 30))
    sim = SimConfig(
        num_curves,
        obs_range=(low, low + draw(st.integers(0, 20))),
        noise_variance=draw(st.sampled_from([0.1, 1.0, 4.0])),
        seed=draw(st.integers(0, 10_000)),
    )
    return generate(sim)[0], draw(st.integers(1, 4))


@derandomised(25)
@given(small_fits())
def test_jumps_keep_proper_densities_and_convergence(case):
    # the fits run to 3000 sweeps; one that converges within the default 500
    # is the fit at the default budget, which stops there
    dataset, num_eigen = case
    config = FitConfig(num_eigen=num_eigen, max_iter=3000)
    budget = FitConfig().max_iter
    with pytest.MonkeyPatch.context() as patch:
        tries = watch_jumps(patch)
        try:
            jumped = fit(dataset, config)
        except DegenerateMessageError:
            jumped = None
        assert all(proper and unchanged for _, proper, unchanged in tries)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(orchestrator, "_JUMP_CAP", 0.0)
        try:
            plain = fit(dataset, config)
        except DegenerateMessageError:
            return
    assert jumped is not None
    assert jumped.converged or not plain.converged
    if plain.converged and plain.iterations <= budget:
        assert jumped.iterations <= budget
