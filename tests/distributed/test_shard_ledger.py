"""N concurrent shards under one HostMemoryGovernor never overcommit.

Mirrors the single-run budget tests in ``tests/core/test_governor.py``:
the ``host_mem`` gauge stream on the *node* tracer is the evidence — one
sample per ledger transition, across every shard — and each sample must
stay within the node budget (or be a counted minimum-progress
overcommit).  Plus the unit contracts of :class:`ScopedLedger` that make
the sharing sound: namespaced keys, accumulate-not-replace stores, and
the no-op tracer rebind.
"""

import threading

import pytest

from repro.core.governor import Governor, GovernorConfig, HostMemoryGovernor
from repro.core.governor.hostmem import ScopedLedger
from repro.distributed.shard import ShardConfig, run_sharded
from repro.observability import Tracer
from repro.sparse.generators import random_csr, rmat
from tests.conftest import assert_equals_scipy_product


class TestScopedLedger:
    def test_namespaced_keys_do_not_collide(self):
        base = HostMemoryGovernor(1000)
        s0, s1 = base.scoped("shard0"), base.scoped("shard1")
        assert s0.admit(0, 400, may_wait=False)
        # same local chunk id, different namespace: a second reservation
        assert s1.admit(0, 400, may_wait=False)
        assert base.held_bytes() == 800
        # and a third would breach the budget
        assert not base.scoped("shard2").admit(0, 400, may_wait=False)
        s0.release(0)
        assert base.held_bytes() == 400
        s1.release(0)
        assert base.held_bytes() == 0

    def test_admit_is_idempotent_per_scope(self):
        base = HostMemoryGovernor(1000)
        view = base.scoped("s")
        assert view.admit(3, 600, may_wait=False)
        assert view.admit(3, 600, may_wait=False)  # retry keeps reservation
        assert base.held_bytes() == 600

    def test_stores_accumulate_across_scopes(self):
        class Store:
            def __init__(self, held):
                self.held_bytes = held

            def nbytes(self):
                return self.held_bytes

        base = HostMemoryGovernor(1000)
        base.scoped("a").attach_store(Store(100))
        base.scoped("b").attach_store(Store(200))
        assert base.held_bytes() == 300
        # re-attaching the same store is a no-op, not a double count
        store = Store(50)
        view = base.scoped("c")
        view.attach_store(store)
        view.attach_store(store)
        assert base.held_bytes() == 350

    def test_bind_tracer_keeps_node_stream(self):
        node_tracer = Tracer(stream="node")
        base = HostMemoryGovernor(1000, tracer=node_tracer)
        view = base.scoped("s")
        view.bind_tracer(Tracer(stream="shard"))  # deliberate no-op
        view.admit(0, 10, may_wait=False)
        assert any(g.name == "host_mem" for g in node_tracer.gauges)

    def test_proxied_stats(self):
        base = HostMemoryGovernor(500)
        view = base.scoped("s")
        view.admit(0, 9999, may_wait=True)  # minimum-progress escape
        assert view.budget_bytes == 500
        assert view.peak_bytes == base.peak_bytes == 9999
        assert view.overcommits == base.overcommits == 1

    def test_governor_injection_uses_shared_view(self):
        base = HostMemoryGovernor(1 << 20)
        gov = Governor(GovernorConfig(device_pool_bytes=1 << 20),
                       hostmem=base.scoped("s"))
        assert isinstance(gov.hostmem, ScopedLedger)
        assert gov.hostmem.base is base
        # config-built private ledger still works when nothing is injected
        own = Governor(GovernorConfig(host_mem_budget_bytes=1 << 20))
        assert isinstance(own.hostmem, HostMemoryGovernor)


class TestSharedBudgetUnderConcurrency:
    def test_raw_concurrent_scopes_never_overcommit(self):
        """Hammer one ledger from N scope threads; every gauge sample
        stays within budget and nothing leaks."""
        tracer = Tracer()
        base = HostMemoryGovernor(10_000, tracer=tracer)
        errors = []

        def scope_main(t):
            view = base.scoped(f"s{t}")
            try:
                for cid in range(30):
                    while not view.admit(cid, 900, may_wait=False):
                        pass
                    view.release(cid)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=scope_main, args=(t,))
                   for t in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert not errors
        assert base.overcommits == 0
        assert 0 < base.peak_bytes <= 10_000
        assert base.held_bytes() == 0
        samples = [g for g in tracer.gauges if g.name == "host_mem"]
        assert len(samples) >= 2 * 6 * 30  # one per admit + one per release
        for g in samples:
            assert g.values["reserved"] + g.values["stored"] <= 10_000

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_sharded_run_holds_node_budget(self, backend):
        """A real N-shard run under one node ledger: budget held on every
        gauge sample, product still bit-identical."""
        a = rmat(8, 5.0, seed=71)
        b = random_csr(a.n_cols, 100, 3 * a.n_cols, seed=72)
        node_tracer = Tracer(stream="node")
        # roomy enough to never need the minimum-progress escape, small
        # enough that shards actually contend for admission
        budget = 1 << 22
        res = run_sharded(
            a, b,
            ShardConfig(num_shards=3, workers=2, backend=backend,
                        governor=GovernorConfig(host_mem_budget_bytes=budget)),
            tracer=node_tracer,
        )
        assert_equals_scipy_product(res.matrix, a, b)
        assert res.ledger_overcommits == 0
        assert 0 < res.ledger_peak_bytes <= budget
        samples = [g for g in node_tracer.gauges if g.name == "host_mem"]
        assert samples, "shared ledger must gauge on the node tracer"
        for g in samples:
            assert g.values["reserved"] + g.values["stored"] <= budget
            assert g.values["budget"] == budget

    def test_tiny_budget_overcommits_are_counted_not_fatal(self):
        """A node budget below one chunk's estimate completes via the
        minimum-progress escape, and every escape is accounted."""
        a = rmat(7, 5.0, seed=73)
        res = run_sharded(
            a, a, ShardConfig(num_shards=2, workers=2,
                              governor=GovernorConfig(host_mem_budget_bytes=1)),
        )
        assert_equals_scipy_product(res.matrix, a, a)
        assert res.ledger_overcommits > 0
