"""The Kubernetes API server: object store plus watch streams.

Every CRUD call is a generator that pays ``api_latency_s``; every
watcher receives ADDED/MODIFIED/DELETED events after
``watch_latency_s``, preserving per-watch ordering — the informer
behaviour the control loops are built on.

Each kind keeps a label index, ``(label, value) -> {key: object}``, so
a selector list reads one bucket instead of the whole kind.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.k8s.objects import KINDS, ObjectMeta, matches_selector
from repro.k8s.profile import K8sProfile
from repro.sim import Environment, Store

#: An object's key, ``(namespace, name)``, and a label pair, ``(label, value)``.
_Key = tuple[str, str]
_Pair = tuple[str, str]


class NotFound(KeyError):
    """No such object."""


class Conflict(RuntimeError):
    """Create of an already-existing object."""


@dataclasses.dataclass
class WatchEvent:
    type: str  # ADDED | MODIFIED | DELETED
    obj: _t.Any


class Watch:
    """One subscriber's event stream for a kind."""

    def __init__(self, env: Environment, kind: str) -> None:
        self.env = env
        self.kind = kind
        self.events: Store = Store(env)
        self.active = True

    def get(self):
        """Event for the next watch notification (yield it)."""
        return self.events.get()

    def cancel(self) -> None:
        """Stop the stream.  Events already in flight (notified but not
        yet delivered) are dropped at their delivery time."""
        self.active = False


class APIServer:
    """Stores all cluster objects and fans out watch events."""

    def __init__(self, env: Environment, profile: K8sProfile | None = None) -> None:
        self.env = env
        self.profile = profile or K8sProfile()
        self._objects: dict[str, dict[_Key, _t.Any]] = {
            kind: {} for kind in KINDS
        }
        #: Per kind: (label, value) -> {key: object}.
        self._by_label: dict[str, dict[_Pair, dict[_Key, _t.Any]]] = {
            kind: {} for kind in KINDS
        }
        #: Per kind: key -> the label pairs it is indexed under (a
        #: snapshot, so an in-place label edit is re-indexed by update).
        self._indexed: dict[str, dict[_Key, tuple[_Pair, ...]]] = {
            kind: {} for kind in KINDS
        }
        self._watches: dict[str, list[Watch]] = {kind: [] for kind in KINDS}
        self._resource_version = 0
        #: API request counter, for tests.
        self.stats = {"requests": 0, "events": 0}
        #: Failure injection: requests issued before this instant block
        #: until it passes (a stalled apiserver is slow, not dead).
        self._stalled_until = 0.0

    # -- helpers ----------------------------------------------------------

    def stall_for(self, duration_s: float) -> None:
        """Stall the apiserver: every request issued during the window
        waits for the residual stall before its normal latency."""
        if duration_s < 0:
            raise ValueError("duration_s must be >= 0")
        self._stalled_until = max(
            self._stalled_until, self.env.now + duration_s
        )

    def _latency(self):
        self.stats["requests"] += 1
        stalled_until = self._stalled_until
        if stalled_until > self.env.now:
            yield self.env.timeout(stalled_until - self.env.now)
        yield self.env.timeout(self.profile.api_latency_s)

    def _bump(self, meta: ObjectMeta) -> None:
        self._resource_version += 1
        meta.resource_version = self._resource_version

    def _notify(self, kind: str, event_type: str, obj: _t.Any) -> None:
        watches = self._watches[kind]
        if not watches:
            return
        event = WatchEvent(event_type, obj)
        pruned = False
        for watch in watches:
            if watch.active:
                self.stats["events"] += 1
                self._deliver(watch, event)
            else:
                pruned = True
        if pruned:
            # Cancelled watches would otherwise accumulate forever and
            # slow every later fan-out.
            self._watches[kind] = [w for w in watches if w.active]

    def _deliver(self, watch: Watch, event: WatchEvent) -> None:
        """Enqueue ``event`` on ``watch`` after the watch latency.

        A slim scheduled callback, not a process: events already in
        flight when the watch is cancelled are simply dropped at
        delivery time — no dead process is ever spawned for them.
        """
        self.env.call_later(
            self.profile.watch_latency_s, self._fan_out, watch, event
        )

    @staticmethod
    def _fan_out(watch: Watch, event: WatchEvent) -> None:
        if watch.active:
            watch.events.put(event)

    def _index(self, kind: str, key: _Key, obj: _t.Any) -> None:
        """Point the label index of ``key`` at ``obj`` (``None``: drop it)."""
        buckets = self._by_label[kind]
        pairs = tuple(obj.metadata.labels.items()) if obj is not None else ()
        for pair in self._indexed[kind].pop(key, ()):
            if pair not in pairs:
                bucket = buckets[pair]
                del bucket[key]
                if not bucket:
                    del buckets[pair]
        for pair in pairs:
            buckets.setdefault(pair, {})[key] = obj
        if obj is not None:
            self._indexed[kind][key] = pairs

    @staticmethod
    def _kind_of(obj: _t.Any) -> str:
        kind = getattr(obj, "kind", None)
        if kind not in KINDS:
            raise TypeError(f"not an API object: {obj!r}")
        return kind

    # -- CRUD (generators) ---------------------------------------------------

    def create(self, obj: _t.Any):
        """Create an object (generator returning it)."""
        kind = self._kind_of(obj)
        yield from self._latency()
        key = obj.metadata.key
        if key in self._objects[kind]:
            raise Conflict(f"{kind} {key} already exists")
        obj.metadata.creation_time = self.env.now
        self._bump(obj.metadata)
        self._objects[kind][key] = obj
        self._index(kind, key, obj)
        self._notify(kind, "ADDED", obj)
        return obj

    def get(self, kind: str, name: str, namespace: str = "default"):
        """Fetch one object (generator)."""
        yield from self._latency()
        obj = self._objects[kind].get((namespace, name))
        if obj is None:
            raise NotFound(f"{kind} {namespace}/{name}")
        return obj

    def try_get(self, kind: str, name: str, namespace: str = "default"):
        """Like :meth:`get` but returns ``None`` instead of raising."""
        yield from self._latency()
        return self._objects[kind].get((namespace, name))

    def list(
        self,
        kind: str,
        namespace: str | None = "default",
        selector: _t.Mapping[str, str] | None = None,
    ):
        """List objects, optionally filtered by label selector (generator)."""
        yield from self._latency()
        return self.list_nowait(kind, namespace, selector)

    def list_nowait(
        self,
        kind: str,
        namespace: str | None = "default",
        selector: _t.Mapping[str, str] | None = None,
    ) -> list[_t.Any]:
        """Synchronous (informer-cache style) list, no API latency.

        A selector reads only the index bucket of its first pair; the
        result is the same either way, in uid order.
        """
        if selector:
            candidates = self._by_label[kind].get(next(iter(selector.items())), {})
        else:
            candidates = self._objects[kind]
        result = []
        for (ns, _), obj in candidates.items():
            if namespace is not None and ns != namespace:
                continue
            if selector and not matches_selector(obj.metadata.labels, selector):
                continue
            result.append(obj)
        result.sort(key=lambda o: o.metadata.uid)
        return result

    def update(self, obj: _t.Any):
        """Persist a mutation and notify watchers (generator)."""
        kind = self._kind_of(obj)
        yield from self._latency()
        key = obj.metadata.key
        if key not in self._objects[kind]:
            raise NotFound(f"{kind} {key}")
        self._bump(obj.metadata)
        self._objects[kind][key] = obj
        self._index(kind, key, obj)
        self._notify(kind, "MODIFIED", obj)
        return obj

    def delete(self, kind: str, name: str, namespace: str = "default"):
        """Delete an object (generator returning it)."""
        yield from self._latency()
        obj = self._objects[kind].pop((namespace, name), None)
        if obj is None:
            raise NotFound(f"{kind} {namespace}/{name}")
        self._index(kind, (namespace, name), None)
        self._notify(kind, "DELETED", obj)
        return obj

    # -- watches -------------------------------------------------------------------

    def watch(self, kind: str, replay_existing: bool = True) -> Watch:
        """Subscribe to a kind's events.

        With ``replay_existing`` the watch starts with synthetic ADDED
        events for current objects (informer list+watch semantics).
        """
        if kind not in KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        watch = Watch(self.env, kind)
        self._watches[kind].append(watch)
        if replay_existing:
            for obj in self.list_nowait(kind, namespace=None):
                self._notify_one(watch, WatchEvent("ADDED", obj))
        return watch

    def _notify_one(self, watch: Watch, event: WatchEvent) -> None:
        self.stats["events"] += 1
        self._deliver(watch, event)
