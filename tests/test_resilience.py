"""Unit tests for :mod:`repro.resilience` (no HTTP server involved).

Deadlines and the admission controller are driven with fake clocks, the
retry helper with a recording sleep, and the fault injector with explicit
seeds — nothing here sleeps for real, so the whole file runs in
milliseconds while still exercising expiry, saturation, backoff and
deterministic fault sequences.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.exceptions import ReproError, StorageError
from repro.resilience import (
    AdmissionController,
    Deadline,
    DeadlineExceededError,
    FaultInjectedError,
    FaultInjector,
    FaultRule,
    RetryPolicy,
    active_deadline,
    active_injector,
    clear_faults,
    deadline_scope,
    enter_stage,
    inject,
    install_faults,
    parse_fault_spec,
    retry_call,
)


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self, now: float = 100.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------


class TestDeadline:
    def test_after_ms_expires_on_schedule(self):
        clock = FakeClock()
        deadline = Deadline.after_ms(250, clock=clock)
        assert not deadline.expired()
        assert deadline.remaining_seconds() == pytest.approx(0.25)
        clock.advance(0.2)
        assert not deadline.expired()
        clock.advance(0.06)
        assert deadline.expired()
        assert deadline.remaining_seconds() < 0

    def test_check_raises_with_stage_and_budget(self):
        clock = FakeClock()
        deadline = Deadline.after_ms(10, clock=clock)
        deadline.check("rank")  # not expired: no-op
        clock.advance(1.0)
        with pytest.raises(DeadlineExceededError) as excinfo:
            deadline.check("rank")
        assert excinfo.value.stage == "rank"
        assert "rank" in str(excinfo.value)
        assert "10 ms" in str(excinfo.value)

    def test_deadline_error_is_a_repro_error(self):
        # The HTTP layer relies on catching it *before* the generic
        # ReproError → 422 arm; being a ReproError keeps library callers'
        # blanket handlers working.
        assert issubclass(DeadlineExceededError, ReproError)

    def test_scope_installs_and_restores(self):
        clock = FakeClock()
        deadline = Deadline.after_ms(50, clock=clock)
        assert active_deadline() is None
        with deadline_scope(deadline):
            assert active_deadline() is deadline
            with deadline_scope(None):  # explicit clearing nests
                assert active_deadline() is None
            assert active_deadline() is deadline
        assert active_deadline() is None

    def test_check_deadline_is_noop_without_scope(self):
        enter_stage("rank")  # must not raise

    def test_check_deadline_raises_inside_scope(self):
        clock = FakeClock()
        deadline = Deadline.after_ms(10, clock=clock)
        clock.advance(1.0)
        with deadline_scope(deadline):
            with pytest.raises(DeadlineExceededError):
                enter_stage("rank")


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------


class TestAdmissionController:
    def test_admits_up_to_max_inflight(self):
        controller = AdmissionController(max_inflight=2, max_queue=0)
        assert controller.try_acquire() == (True, None)
        assert controller.try_acquire() == (True, None)
        assert controller.active() == 2

    def test_sheds_saturated_when_queue_full(self):
        controller = AdmissionController(max_inflight=1, max_queue=0)
        assert controller.try_acquire() == (True, None)
        assert controller.try_acquire() == (False, "saturated")

    def test_sheds_queue_timeout_with_zero_budget(self):
        controller = AdmissionController(
            max_inflight=1, max_queue=4, queue_timeout_seconds=0.0
        )
        assert controller.try_acquire() == (True, None)
        assert controller.try_acquire() == (False, "queue_timeout")

    def test_expired_deadline_never_waits(self):
        clock = FakeClock()
        controller = AdmissionController(
            max_inflight=1, max_queue=4, queue_timeout_seconds=30.0
        )
        assert controller.try_acquire() == (True, None)
        deadline = Deadline.after_ms(10, clock=clock)
        clock.advance(1.0)
        admitted, reason = controller.try_acquire(deadline)
        assert (admitted, reason) == (False, "queue_timeout")

    def test_release_wakes_a_waiter(self):
        controller = AdmissionController(
            max_inflight=1, max_queue=4, queue_timeout_seconds=5.0
        )
        assert controller.try_acquire() == (True, None)
        results = []
        entered = threading.Event()

        def waiter():
            entered.set()
            results.append(controller.try_acquire())

        thread = threading.Thread(target=waiter)
        thread.start()
        entered.wait(2.0)
        # Give the waiter time to reach the condition wait, then free
        # the slot; it must be admitted, not timed out.
        while controller.waiting() == 0:
            pass
        controller.release()
        thread.join(2.0)
        assert results == [(True, None)]
        assert controller.active() == 1
        assert controller.waiting() == 0

    def test_release_without_acquire_raises(self):
        controller = AdmissionController(max_inflight=1, max_queue=0)
        with pytest.raises(RuntimeError):
            controller.release()

    def test_rejects_invalid_limits(self):
        with pytest.raises(ValueError):
            AdmissionController(max_inflight=0, max_queue=0)
        with pytest.raises(ValueError):
            AdmissionController(max_inflight=1, max_queue=-1)
        with pytest.raises(ValueError):
            AdmissionController(
                max_inflight=1, max_queue=0, queue_timeout_seconds=-0.1
            )


# ----------------------------------------------------------------------
# Retry
# ----------------------------------------------------------------------


class TestRetry:
    def test_policy_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy(
            max_attempts=5,
            base_delay_seconds=0.05,
            max_delay_seconds=0.15,
            multiplier=2.0,
        )
        assert [policy.delay_for(a) for a in (1, 2, 3, 4)] == [
            0.05, 0.1, 0.15, 0.15,
        ]

    def test_policy_validates(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_seconds=-1)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)

    def test_retries_then_succeeds(self):
        sleeps: list[float] = []
        retries: list[int] = []
        attempts = {"n": 0}

        def flaky() -> str:
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise StorageError("transient")
            return "ok"

        result = retry_call(
            flaky,
            RetryPolicy(max_attempts=3),
            retry_on=(StorageError,),
            sleep=sleeps.append,
            on_retry=lambda attempt, exc: retries.append(attempt),
        )
        assert result == "ok"
        assert attempts["n"] == 3
        assert sleeps == [0.05, 0.1]  # deterministic, no jitter
        assert retries == [1, 2]

    def test_final_exception_propagates_unwrapped(self):
        def always_fails() -> None:
            raise StorageError("permanent")

        with pytest.raises(StorageError, match="permanent"):
            retry_call(
                always_fails,
                RetryPolicy(max_attempts=3),
                retry_on=(StorageError,),
                sleep=lambda _s: None,
            )

    def test_non_matching_exception_is_not_retried(self):
        attempts = {"n": 0}

        def wrong_kind() -> None:
            attempts["n"] += 1
            raise KeyError("nope")

        with pytest.raises(KeyError):
            retry_call(
                wrong_kind,
                RetryPolicy(max_attempts=5),
                retry_on=(StorageError,),
                sleep=lambda _s: None,
            )
        assert attempts["n"] == 1


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------


@pytest.fixture(autouse=True)
def _no_leaked_injector():
    yield
    clear_faults()


class TestFaultSpecParsing:
    def test_full_spec(self):
        injector = parse_fault_spec(
            "seed=7,storage:exception:0.5,model:latency:1.0:25"
        )
        assert injector is not None
        assert injector._rules["storage"][0] == FaultRule(
            "storage", "exception", 0.5, 10.0
        )
        assert injector._rules["model"][0] == FaultRule(
            "model", "latency", 1.0, 25.0
        )

    def test_defaults(self):
        injector = parse_fault_spec("cache:slow_storage")
        (rule,) = injector._rules["cache"]
        assert rule.probability == 1.0
        assert rule.delay_ms == 10.0

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "seed=7",                   # no rules
            "seed=x,model:latency",     # malformed seed
            "model",                    # too few parts
            "model:latency:1:2:3",      # too many parts
            "nowhere:latency",          # unknown site
            "model:nothing",            # unknown kind
            "model:latency:1.5",        # probability out of range
            "model:latency:p",          # non-numeric probability
            "model:latency:1.0:-5",     # negative delay
        ],
    )
    def test_malformed_specs_raise(self, bad):
        with pytest.raises(ValueError):
            parse_fault_spec(bad)


class TestFaultInjector:
    def test_exception_rule_raises_with_site(self):
        injector = FaultInjector([FaultRule("model", "exception")])
        with pytest.raises(FaultInjectedError) as excinfo:
            injector.fire("model")
        assert excinfo.value.site == "model"

    def test_latency_rule_sleeps_for_delay(self):
        sleeps: list[float] = []
        injector = FaultInjector(
            [FaultRule("cache", "latency", delay_ms=25.0)],
            sleep=sleeps.append,
        )
        injector.fire("cache")
        assert sleeps == [0.025]

    def test_unconfigured_site_is_noop(self):
        injector = FaultInjector([FaultRule("model", "exception")])
        injector.fire("storage")  # must not raise or sleep

    def test_probability_sequence_is_seed_deterministic(self):
        def run(seed: int) -> list[bool]:
            injector = FaultInjector(
                [FaultRule("storage", "exception", probability=0.5)],
                seed=seed,
            )
            fired = []
            for _ in range(32):
                try:
                    injector.fire("storage")
                except FaultInjectedError:
                    fired.append(True)
                else:
                    fired.append(False)
            return fired

        assert run(7) == run(7)
        assert run(7) != run(8)  # astronomically unlikely to collide
        # The decision sequence is exactly the seeded RNG's stream.
        rng = random.Random(7)
        assert run(7) == [rng.random() < 0.5 for _ in range(32)]

    def test_injected_counts(self):
        injector = FaultInjector(
            [FaultRule("model", "latency", delay_ms=0.0)],
        )
        injector.fire("model")
        injector.fire("model")
        assert injector.injected_counts() == {("model", "latency"): 2}

    def test_install_and_clear(self):
        assert active_injector() is None
        inject("model")  # inert without an injector
        injector = FaultInjector([FaultRule("model", "exception")])
        install_faults(injector)
        assert active_injector() is injector
        with pytest.raises(FaultInjectedError):
            inject("model")
        clear_faults()
        assert active_injector() is None
        inject("model")  # inert again


class TestRetryingStore:
    def test_load_retries_injected_storage_faults(self, tmp_path):
        from repro.core.library import ImplementationLibrary
        from repro.storage import JsonLibraryStore, RetryingLibraryStore

        library = ImplementationLibrary()
        library.add_pair("olivier salad", ["potatoes", "carrots"])
        path = tmp_path / "library.json"
        JsonLibraryStore(path).save(library)

        # Probability 0.5 with seed 7: replicate the decision stream to
        # confirm the first two attempts fault and the third passes.
        rng = random.Random(7)
        draws = [rng.random() < 0.5 for _ in range(3)]
        assert draws == [True, True, False], (
            "seed 7 must fault exactly twice first; pick another seed if "
            "the RNG stream ever changes"
        )
        install_faults(
            FaultInjector(
                [FaultRule("storage", "exception", probability=0.5)], seed=7
            )
        )
        sleeps: list[float] = []
        store = RetryingLibraryStore(
            JsonLibraryStore(path), sleep=sleeps.append
        )
        loaded = store.load()
        assert list(loaded)[0].goal == "olivier salad"
        assert sleeps == [0.05, 0.1]
        counts = active_injector().injected_counts()
        assert counts == {("storage", "exception"): 2}

    def test_load_gives_up_after_max_attempts(self, tmp_path):
        from repro.core.library import ImplementationLibrary
        from repro.storage import JsonLibraryStore, RetryingLibraryStore

        library = ImplementationLibrary()
        library.add_pair("olivier salad", ["potatoes"])
        path = tmp_path / "library.json"
        JsonLibraryStore(path).save(library)
        install_faults(
            FaultInjector([FaultRule("storage", "exception")])  # p = 1.0
        )
        store = RetryingLibraryStore(
            JsonLibraryStore(path), sleep=lambda _s: None
        )
        with pytest.raises(FaultInjectedError):
            store.load()
        counts = active_injector().injected_counts()
        assert counts == {("storage", "exception"): 3}

    def test_save_and_exists_pass_through(self, tmp_path):
        from repro.core.library import ImplementationLibrary
        from repro.storage import JsonLibraryStore, RetryingLibraryStore

        store = RetryingLibraryStore(JsonLibraryStore(tmp_path / "l.json"))
        assert not store.exists()
        library = ImplementationLibrary()
        library.add_pair("olivier salad", ["potatoes"])
        store.save(library)
        assert store.exists()
        assert len(list(store.load())) == 1
