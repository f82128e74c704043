"""Level-0 cache: whole rendered pages.

The fragment cache (level 1) spares markup generation and the bean
cache (level 2) spares the data-extraction queries — but a hit still
pays page-service orchestration, slot resolution, and template
assembly.  The page cache closes the loop: the *entire* rendered
response is stored, keyed by everything that may legally change the
bytes — the page, the canonicalized request parameters, the device
class, and the authenticated principal.

Like the bean cache, it is model-driven (§6): every entry carries the
union of the entity/role dependency sets of the page's unit
descriptors, and ``invalidate_writes`` drops exactly the dependent
pages.  ``scoped=False`` degrades invalidation to a global flush — the
baseline E15 compares against.

Entries carry the content digest (the HTTP ``ETag``) and a
deterministic gzip body, so conditional and compressed delivery costs
nothing on a hit.  LRU bounded, optional TTL, single-flight builds
with the same invalidation-generation guard as the other levels.

Invalidation-ordering invariants (what keeps stale pages impossible):

- the :class:`~repro.caching.bus.InvalidationBus` notifies cache
  levels in registration order — bean before fragment before page —
  so when the page level starts rebuilding, the deeper levels it will
  read through are already clean; registering the page cache first
  would let a rebuilding page resurrect stale beans;
- every entry records the invalidation *generation* current when its
  build began; a write landing mid-build bumps the generation, and the
  finished entry is then discarded instead of stored — a build can
  never publish data older than the last write it raced with;
- ``invalidate_writes`` runs synchronously in the writing request's
  thread, after the DML commits and *before* the operation's redirect
  is produced — so the page the writer is bounced to is rebuilt, and a
  session that just wrote always re-reads its own write (§6's
  consistency requirement).
"""

from __future__ import annotations

import gzip
import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.caching.stats import CacheStats
from repro.errors import CacheError
from repro.util import SystemClock


def canonical_params(params: dict) -> tuple:
    """A hashable, order-insensitive rendition of request parameters.

    List values (checkbox groups) become tuples; everything else is
    kept verbatim — two requests differing only in parameter order map
    to the same page-cache key.
    """
    return tuple(sorted(
        (name, tuple(value) if isinstance(value, (list, tuple)) else value)
        for name, value in params.items()
    ))


def content_etag(body: str) -> str:
    """The strong validator of a rendered body (RFC 7232 quoted form)."""
    return f'"{hashlib.sha1(body.encode()).hexdigest()}"'


@dataclass
class PageEntry:
    """One cached response: the body plus its delivery by-products."""

    body: str
    etag: str
    gzip_body: bytes
    entities: frozenset
    roles: frozenset
    expires_at: float | None = None


class PageCache:
    """The level-0 store consulted by the front controller."""

    def __init__(self, max_entries: int = 512,
                 ttl_seconds: float | None = None,
                 scoped: bool = True, clock=None):
        if max_entries <= 0:
            raise CacheError("page cache needs a positive capacity")
        self.max_entries = max_entries
        self.ttl_seconds = ttl_seconds
        self.scoped = scoped
        self.clock = clock or SystemClock()
        self.stats = CacheStats()
        self._lock = threading.RLock()
        self._entries: OrderedDict[object, PageEntry] = OrderedDict()
        self._by_entity: dict[str, set] = {}
        self._by_role: dict[str, set] = {}
        self._flight_lock = threading.Lock()
        self._in_flight: dict[object, threading.Event] = {}
        self._generation = 0

    # -- entry construction ---------------------------------------------------

    def make_entry(self, body: str, entities=(), roles=()) -> PageEntry:
        """Digest and compress a rendered body once, at store time.

        ``mtime=0`` keeps the gzip bytes deterministic, so repeated
        builds of identical content produce identical wire bytes.
        """
        return PageEntry(
            body=body,
            etag=content_etag(body),
            gzip_body=gzip.compress(body.encode(), mtime=0),
            entities=frozenset(entities),
            roles=frozenset(roles),
        )

    # -- the cache protocol ---------------------------------------------------

    def get(self, key) -> PageEntry | None:
        return self._lookup(key, count_hit=True, count_miss=True)

    def peek(self, key) -> PageEntry | None:
        """A hit-or-nothing read for the edge fast path.

        Hits count (and refresh LRU order) exactly like :meth:`get`;
        a miss counts *nothing* — the caller is about to fall through
        to the full path, whose :meth:`get_or_build` records the miss
        once.  Without this, every inline probe of an uncached page
        would double-count misses and skew the E15/E19 hit ratios.
        """
        return self._lookup(key, count_hit=True, count_miss=False)

    def __contains__(self, key) -> bool:
        """Whether a live entry is stored, counting neither a hit nor a
        miss: the caller's own read of the page counts once."""
        return self._lookup(key, count_hit=False, count_miss=False) is not None

    def _lookup(self, key, count_hit: bool, count_miss: bool
                ) -> PageEntry | None:
        with self._lock:
            entry = self._entries.get(key)
            if (entry is not None and entry.expires_at is not None
                    and self.clock.now() >= entry.expires_at):
                self._remove(key)
                self.stats.increment("expirations")
                entry = None
            if entry is None:
                if count_miss:
                    self.stats.increment("misses")
                return None
            self._entries.move_to_end(key)
            if count_hit:
                self.stats.increment("hits")
            return entry

    def put(self, key, entry: PageEntry) -> None:
        with self._lock:
            if key in self._entries:
                self._remove(key)
            if self.ttl_seconds is not None:
                entry.expires_at = self.clock.now() + self.ttl_seconds
            self._entries[key] = entry
            for entity in entry.entities:
                self._by_entity.setdefault(entity, set()).add(key)
            for role in entry.roles:
                self._by_role.setdefault(role, set()).add(key)
            self.stats.increment("puts")
            while len(self._entries) > self.max_entries:
                oldest = next(iter(self._entries))
                self._remove(oldest)
                self.stats.increment("evictions")

    def get_or_build(self, key, build) -> PageEntry:
        """Return the cached entry, or build it exactly once.

        ``build()`` runs the full request path (page service + view),
        so concurrent misses of a popular page must not stampede it:
        one leader builds, the rest wait and re-read.  An entry built
        from pre-invalidation data is never stored after an operation
        invalidated its dependencies (generation guard).
        """
        first_attempt = True
        while True:
            # one hit or miss per call: a follower's re-read after the
            # leader's build is counted as ``coalesced`` only
            entry = self._lookup(key, count_hit=first_attempt,
                                 count_miss=first_attempt)
            if entry is not None:
                if not first_attempt:
                    self.stats.increment("coalesced")
                return entry
            with self._flight_lock:
                leader_event = self._in_flight.get(key)
                if leader_event is None:
                    my_event = threading.Event()
                    self._in_flight[key] = my_event
            if leader_event is not None:
                leader_event.wait()
                first_attempt = False
                continue
            try:
                with self._lock:
                    generation = self._generation
                entry = build()
                if entry is not None:
                    with self._lock:
                        if self._generation == generation:
                            self.put(key, entry)
                return entry
            finally:
                with self._flight_lock:
                    del self._in_flight[key]
                my_event.set()

    # -- streaming builds -----------------------------------------------------
    #
    # The chunked delivery path cannot run inside get_or_build: the
    # body does not exist until the stream has been fully written to
    # the client.  These three methods expose the same single-flight +
    # generation discipline as explicit steps, so a stream holds the
    # page's flight slot while rendering (concurrent misses wait in
    # get_or_build and reuse the stored entry) and a store is refused
    # when an invalidation raced the build.

    @property
    def generation(self) -> int:
        """The invalidation generation; capture before a detached build."""
        with self._lock:
            return self._generation

    def begin_flight(self, key) -> bool:
        """Claim the single-flight slot for ``key``.

        Returns True when this caller is the leader; False when
        another build is already in flight (the caller should fall
        back to :meth:`get_or_build` and wait like any follower).
        Leaders MUST call :meth:`finish_flight` — streaming callers do
        so from the chunk iterator's ``finally``, which is why a
        client disconnect (generator close) cannot wedge the page.
        """
        with self._flight_lock:
            if key in self._in_flight:
                return False
            self._in_flight[key] = threading.Event()
            return True

    def finish_flight(self, key) -> None:
        """Release the slot claimed by :meth:`begin_flight`, waking
        every follower parked in :meth:`get_or_build`."""
        with self._flight_lock:
            event = self._in_flight.pop(key, None)
        if event is not None:
            event.set()

    def put_if_current(self, key, entry: PageEntry, generation: int) -> bool:
        """Store ``entry`` unless an invalidation raced the build
        (same guard as :meth:`get_or_build`'s inline path)."""
        with self._lock:
            if self._generation != generation:
                return False
            self.put(key, entry)
            return True

    # -- model-driven invalidation --------------------------------------------

    def invalidate_writes(self, entities=(), roles=()) -> int:
        """Drop every page depending on any written entity/role.

        In ``scoped=False`` mode any write clears the whole cache —
        the behaviour of a cache without a conceptual model to consult.
        """
        if not self.scoped:
            if entities or roles:
                return self.flush()
            return 0
        with self._lock:
            self._generation += 1
            keys: set = set()
            for entity in entities:
                keys |= self._by_entity.get(entity, set())
            for role in roles:
                keys |= self._by_role.get(role, set())
            for key in keys:
                self._remove(key)
            self.stats.increment("invalidations", len(keys))
            return len(keys)

    def flush(self) -> int:
        with self._lock:
            self._generation += 1
            count = len(self._entries)
            self._entries.clear()
            self._by_entity.clear()
            self._by_role.clear()
            self.stats.increment("invalidations", count)
            return count

    # -- maintenance ----------------------------------------------------------

    def _remove(self, key) -> None:
        entry = self._entries.pop(key, None)
        if entry is None:
            return
        for entity in entry.entities:
            holders = self._by_entity.get(entity)
            if holders:
                holders.discard(key)
                if not holders:
                    del self._by_entity[entity]
        for role in entry.roles:
            holders = self._by_role.get(role)
            if holders:
                holders.discard(key)
                if not holders:
                    del self._by_role[role]

    def dependents_of(self, entity: str | None = None,
                      role: str | None = None) -> int:
        with self._lock:
            if entity is not None:
                return len(self._by_entity.get(entity, set()))
            if role is not None:
                return len(self._by_role.get(role, set()))
            return 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
