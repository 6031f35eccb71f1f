"""The API server's label index: same lists as a full scan, less work.

``APIServer.list_nowait`` with a selector reads one label-index bucket
instead of scanning the kind.  These tests hold it to the full scan it
replaced (same objects, same uid order, after any create/update/delete
sequence) and bound the selector evaluations of one kube-proxy
reconcile.
"""

from __future__ import annotations

import types

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.k8s.apiserver
import repro.k8s.kubeproxy
from repro.k8s import (
    APIServer,
    ObjectMeta,
    Pod,
    PodSpec,
    Service,
    ServicePort,
    ServiceSpec,
    matches_selector,
)
from repro.k8s.kubeproxy import KubeProxy
from repro.sim import Environment

from tests.nethelpers import MiniNet

NAMESPACES = ("ns0", "ns1")
LABEL_KEYS = ("app", "tier", "zone")
LABEL_VALUES = ("a", "b", "c")

#: Every selector shape: none, empty, one key, several keys, and
#: selectors no object can match (unknown value, unknown key).
SELECTORS = (
    None,
    {},
    {"app": "a"},
    {"tier": "b"},
    {"app": "a", "tier": "b"},
    {"zone": "c", "app": "b", "tier": "a"},
    {"app": "zz"},
    {"missing": "a"},
    {"app": "a", "missing": "a"},
)

_labels = st.dictionaries(
    st.sampled_from(LABEL_KEYS), st.sampled_from(LABEL_VALUES), max_size=3
)
_target = st.tuples(st.integers(0, 4), st.sampled_from(NAMESPACES))
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("create"), _target, _labels),
        # Edit the stored object's labels in place, then persist them.
        st.tuples(st.just("edit"), _target, _labels),
        # Persist a different object under the same key.
        st.tuples(st.just("replace"), _target, _labels),
        st.tuples(st.just("delete"), _target, st.none()),
    ),
    max_size=30,
)


def _run(env: Environment, gen):
    return env.run(until=env.process(gen))


def _pod(name: str, namespace: str, labels: dict[str, str]) -> Pod:
    return Pod(
        metadata=ObjectMeta(name=name, namespace=namespace, labels=dict(labels)),
        spec=PodSpec(),
    )


def _scan(stored: dict, namespace, selector) -> list:
    """The full scan: filter every stored object, then sort by uid."""
    return sorted(
        (
            obj
            for (ns, _), obj in stored.items()
            if (namespace is None or ns == namespace)
            and (not selector or matches_selector(obj.metadata.labels, selector))
        ),
        key=lambda obj: obj.metadata.uid,
    )


class TestLabelIndexDifferential:
    @settings(max_examples=60, deadline=None)
    @given(_ops)
    def test_selector_lists_equal_full_scan(self, ops):
        env = Environment()
        api = APIServer(env)
        stored: dict[tuple[str, str], Pod] = {}
        for op, (index, namespace), labels in ops:
            key = (namespace, f"pod{index}")
            if op == "create" and key not in stored:
                stored[key] = _run(env, api.create(_pod(key[1], namespace, labels)))
            elif op == "edit" and key in stored:
                pod = stored[key]
                pod.metadata.labels.clear()
                pod.metadata.labels.update(labels)
                _run(env, api.update(pod))
            elif op == "replace" and key in stored:
                stored[key] = _run(env, api.update(_pod(key[1], namespace, labels)))
            elif op == "delete" and key in stored:
                _run(env, api.delete("Pod", key[1], namespace))
                del stored[key]
            for namespace_filter in (None, *NAMESPACES):
                for selector in SELECTORS:
                    listed = api.list_nowait("Pod", namespace_filter, selector)
                    expected = _scan(stored, namespace_filter, selector)
                    assert [id(o) for o in listed] == [id(o) for o in expected]


class TestReconcileComplexity:
    N = 200

    def test_reconcile_evaluates_each_service_selector_on_its_pods_only(
        self, monkeypatch
    ):
        env = Environment()
        api = APIServer(env)
        host = MiniNet(env).host("node0")
        app = object()
        kubelet = types.SimpleNamespace(
            node_host=host, ready_app_for=lambda pod, target_port: app
        )

        def populate(env):
            for i in range(self.N):
                labels = {"edge.service": f"svc{i}"}
                pod = _pod(f"svc{i}-pod", "default", labels)
                pod.spec.node_name = "node0"
                pod.status.ready = True
                yield from api.create(pod)
                yield from api.create(
                    Service(
                        metadata=ObjectMeta(name=f"svc{i}", labels=dict(labels)),
                        spec=ServiceSpec(
                            selector=dict(labels),
                            ports=[
                                ServicePort(
                                    port=80, target_port=80, node_port=30000 + i
                                )
                            ],
                        ),
                    )
                )

        _run(env, populate(env))
        proxy = KubeProxy(env, api, {"node0": kubelet})

        calls = 0

        def counting(labels, selector):
            nonlocal calls
            calls += 1
            return matches_selector(labels, selector)

        for module in (repro.k8s.apiserver, repro.k8s.kubeproxy):
            monkeypatch.setattr(module, "matches_selector", counting, raising=False)
        proxy._reconcile_all()

        assert all(host.port_is_open(30000 + i) for i in range(self.N))
        assert calls <= 2 * self.N
