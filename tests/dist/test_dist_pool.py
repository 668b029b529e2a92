"""The distributed pool's failure containment and runtime support.

Worker crashes must break the barrier (not hang peers), mark the pool
broken, and leave the next call a fresh pool; the shared segments and
tree reduction must behave standalone.
"""

import threading

import pytest

from repro.dist import exchange
from repro.dist.pool import (
    DistPool,
    DistPoolError,
    fork_available,
    get_pool,
    shutdown_pools,
)

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="distribution needs fork"
)

needs_shm = pytest.mark.skipif(
    not exchange.available(), reason="needs shared memory + numpy"
)


class TestSharedDoubles:
    @needs_shm
    def test_create_attach_roundtrip(self):
        owner = exchange.SharedDoubles.create(4)
        try:
            owner.array[:] = [1.0, 2.0, 3.0, 4.0]
            view = exchange.SharedDoubles.attach(owner.name, 4)
            assert list(view.array) == [1.0, 2.0, 3.0, 4.0]
            view.array[0] = 9.0
            assert owner.array[0] == 9.0
            view.destroy()  # non-owner: close only
            assert owner.array[1] == 2.0
        finally:
            owner.destroy()

    @needs_shm
    def test_destroy_is_idempotent_for_owner(self):
        owner = exchange.SharedDoubles.create(2)
        owner.destroy()
        owner.destroy()  # second unlink is a tolerated no-op


class TestTreeReduceMax:
    @needs_shm
    @pytest.mark.parametrize("parties", [1, 2, 3, 4, 5, 8])
    def test_all_threads_agree_on_the_max(self, parties):
        shared = exchange.SharedDoubles.create(parties)
        try:
            barrier = threading.Barrier(parties)
            values = [float(i * 37 % 11) for i in range(parties)]
            results = [None] * parties

            def work(index):
                shared.array[index] = values[index]
                results[index] = exchange.tree_reduce_max(
                    shared.array, index, parties,
                    lambda: barrier.wait(30),
                )

            threads = [
                threading.Thread(target=work, args=(i,))
                for i in range(parties)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
            assert results == [max(values)] * parties
        finally:
            shared.destroy()


class TestPoolFailureContainment:
    def test_bad_job_breaks_and_rebuilds(self):
        pool = get_pool(2)
        with pytest.raises(DistPoolError):
            # A job no worker understands: raises inside the worker,
            # which aborts the barrier and reports the traceback.
            pool.run({"kind": "steps", "control": 1,
                      "kernel": "this is not python", "param": "u",
                      "low": (1,), "high": (2,), "size": 2,
                      "env": {}, "trace": False,
                      "row_blocks": ((1, 1), (2, 2)),
                      "shm": {"a": "missing", "b": "missing",
                              "r": "missing"}})
        assert pool.broken
        fresh = get_pool(2)
        assert fresh is not pool
        assert fresh.alive()
        fresh.shutdown()

    def test_run_after_shutdown_raises(self):
        pool = DistPool(2)
        pool.shutdown()
        with pytest.raises(DistPoolError):
            pool.run({"kind": "steps"})

    def test_shutdown_pools_is_idempotent(self):
        get_pool(2)
        shutdown_pools()
        shutdown_pools()  # second call: nothing left, no error
        # The pool rebuilds lazily afterwards.
        pool = get_pool(2)
        assert pool.alive()
        shutdown_pools()
