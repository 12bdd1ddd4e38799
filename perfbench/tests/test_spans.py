"""The tracer: patching every importer, exact self times, clean removal."""

import sys

import sapforce
from spans import PER_LAYER, Tracer


def traced_xi(g):
    tracer = Tracer()
    tracer.install()
    try:
        sid = tracer.begin_op(0)
        cert = sapforce.xi(g)
        tracer.end_op(sid)
    finally:
        tracer.uninstall()
    return tracer, cert


def test_self_times_partition_the_op():
    tracer, cert = traced_xi(sapforce.families.complete(4).join(sapforce.families.empty(3)))
    n = len(tracer.end)
    dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
    child = [0] * n
    for i in range(n):
        if tracer.parent[i] >= 0:
            child[tracer.parent[i]] += dur[i]
    assert tracer.parent[0] == -1 and all(tracer.parent[i] >= 0 for i in range(1, n))
    assert all(dur[i] >= child[i] for i in range(n))
    assert sum(dur[i] - child[i] for i in range(n)) == dur[0]
    assert set(tracer.op) == {0}


def test_calls_inside_the_library_are_caught():
    tracer, cert = traced_xi(sapforce.families.petersen().induced(range(1, 8)))
    metrics = tracer.summary()
    assert set(metrics) == {name for name, _, _ in PER_LAYER}
    assert metrics["xi.calls"] == 1 and metrics[f"xi.case.{cert.case}"] == 1
    assert metrics["zeroforcing.min_zfs.calls"] >= 1
    assert metrics["sapgame.closure.calls"] >= 1  # is_zsap_zero -> sap_closure, inside sapgame
    if cert.case in ("hadwiger", "t3_family"):
        assert metrics["minors.canon_calls"] == metrics["canon.calls"] > 0


def test_uninstall_restores_every_module():
    before = {name: dict(vars(mod)) for name, mod in sys.modules.items()
              if name == "sapforce" or name.startswith("sapforce.")}
    post_init = sapforce.Graph.__post_init__
    traced_xi(sapforce.families.cycle(5))
    for name, namespace in before.items():
        after = vars(sys.modules[name])
        assert all(after[k] is v for k, v in namespace.items()), name
    assert sapforce.Graph.__post_init__ is post_init
