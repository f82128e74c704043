"""The three traffic mixes: URL streams, arrival schedules, checks.

Every stream is a pure function of the seed, so the same seed sends the
same URLs in the same order with the same arrival schedule, and the
program under test only ever sees the generated requests.

- ``hot_pages`` — zipf(1.0) over 25 public pages (the Volumes home, 12
  volume pages, 12 papers; the seed picks the pages, a fixed pattern
  the kind at each popularity rank).  The working set fits the 512-entry page
  cache, so nearly every request is answered inline on the edge loop.
  Gzip is negotiated and a revisit sends ``If-None-Match`` half the time.
- ``cold_catalog`` — about 3,000 distinct URLs, more than the page
  (512), fragment (1,024) and bean (4,096) caches hold: 50% paper
  details, 25% volume pages, 15% ``Browse papers`` blocks, 10% keyword
  searches, in a fixed repeating order of kinds.  Each kind walks its
  own seeded permutation, so a URL comes back only after all others of
  its kind; the work lands in services, rdb and presentation and on the
  streamed-miss path.
- ``write_mix`` — a hot-ish read mix (zipf(1.0) over about 200 pages)
  on the public connection plus one admin write per 10 reads on the
  logged-in connection.  CreatePaper and DeletePaper alternate, each
  delete removing the previous create's paper, and after every write
  the public connection searches for the written title (read after
  write through the other session).
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from typing import Iterator

from perfbench.dataset import Dataset

#: open-loop offered rate per workload, requests per second: at most a
#: tenth of the workload's median capacity_rps on a quiet 2-vCPU host
#: (about 5,200, 180 and 220 req/s), so that when other guests slow the
#: host two- to threefold the server is still idle most of the time and
#: open_p50_ms stays the service time, not a queue.  At a quarter of
#: capacity (1,350 / 45 / 55 req/s) slowed runs queued: hot_pages p50
#: reached 235 ms and cold_catalog 20 ms against 1 and 5 ms on a quiet
#: host.
OFFERED_RATE = {"hot_pages": 300.0, "cold_catalog": 18.0, "write_mix": 22.0}

#: workloads whose working set outgrows the caches: each phase starts
#: with every cache level empty (the others keep their warm caches)
COLD_START = frozenset({"cold_catalog"})

#: admin writes in write_mix: one per this many public reads
READS_PER_WRITE = 10

WORKLOADS = tuple(OFFERED_RATE)


@dataclass(frozen=True)
class Read:
    """One public page request and what its body must contain."""

    kind: str  # home | volume | paper | browse | search
    target: str
    markers: tuple[str, ...]
    revalidate: bool = False  # send If-None-Match when an ETag is known


class Site:
    """URL construction for the generated ACM model.

    Page, unit and operation ids come from the WebML model itself, so
    the URLs are the ones the generated controller maps."""

    def __init__(self, dataset: Dataset):
        from repro.mvc.http import build_url
        from repro.workloads.acm import build_acm_model

        self._build_url = build_url
        self.dataset = dataset
        model = build_acm_model()
        public = model.find_site_view("public")
        admin = model.find_site_view("admin")
        self._public = public.id

        def page(name):
            return public.find_page(name)

        self._pages = {
            "home": page("Volumes").id,
            "volume": page("Volume Page").id,
            "paper": page("Paper details").id,
            "search": page("SearchResults").id,
            "browse": page("Browse papers").id,
        }
        self._volume_unit = page("Volume Page").unit("Volume data").id
        self._paper_unit = page("Paper details").unit("Paper data").id
        self._search_unit = page("SearchResults").unit("Matching papers").id
        self._scroller_unit = page("Browse papers").units[0].id
        self._ops = {op.name: op.id for op in admin.operations}
        self.sorted_titles = dataset.titles_by_title()

    def _page(self, kind: str, params: dict | None = None) -> str:
        return self._build_url(f"/{self._public}/{self._pages[kind]}", params)

    def home(self) -> Read:
        last = len(self.dataset.volumes)
        return Read("home", self._page("home"),
                    ("All volumes", f"{self._volume_unit}.oid={last}\""))

    def volume(self, oid: int) -> Read:
        volume = self.dataset.volumes[oid - 1]
        first_paper = self.dataset.papers_of_volume(oid)[0]
        return Read("volume",
                    self._page("volume", {f"{self._volume_unit}.oid": oid}),
                    (volume["title"], self.dataset.paper(first_paper).title))

    def paper(self, oid: int) -> Read:
        paper = self.dataset.paper(oid)
        authors = tuple(self.dataset.authors[a - 1] for a in paper.authors)
        return Read("paper",
                    self._page("paper", {f"{self._paper_unit}.oid": oid}),
                    (paper.title,) + authors)

    def browse(self, block: int) -> Read:
        """Block ``block`` (1-based) of the title-ordered scroller."""
        first = self.sorted_titles[(block - 1) * 2]
        return Read("browse",
                    self._page("browse", {f"{self._scroller_unit}.block": block}),
                    (first, f"block {block}/"))

    def search(self, keyword: str, expect: str | None = None) -> Read:
        markers = ("Matching papers",) + ((expect,) if expect else ())
        return Read("search",
                    self._page("search", {f"{self._search_unit}.keyword": keyword}),
                    markers)

    def browse_blocks(self) -> int:
        return (len(self.dataset.papers) + 1) // 2

    def operation(self, name: str, inputs: dict) -> str:
        op = self._ops[name]
        return self._build_url(
            f"/do/{op}", {f"{op}.{slot}": value for slot, value in inputs.items()}
        )

    def login(self) -> str:
        from perfbench.dataset import ADMIN_USER

        user, password = ADMIN_USER
        return self.operation("Login", {"username": user, "password": password})


def _rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"perfbench-{stream}-{seed}")


def _zipf_stream(rng: random.Random, pool: list[Read],
                 revalidate_share: float) -> Iterator[Read]:
    """Zipf(1.0) over ``pool`` (rank = list position)."""
    cumulative = list(itertools.accumulate(1.0 / rank
                                           for rank in range(1, len(pool) + 1)))
    total = cumulative[-1]
    while True:
        read = pool[bisect.bisect_left(cumulative, rng.random() * total)]
        if rng.random() < revalidate_share:
            read = Read(read.kind, read.target, read.markers, revalidate=True)
        yield read


def _cycle_shuffled(rng: random.Random, items: list) -> Iterator:
    """Endless passes over ``items``; each pass is one fixed seeded
    permutation, so an item recurs only after every other item."""
    order = list(items)
    rng.shuffle(order)
    return itertools.cycle(order)


def _ranked(pattern: str, by_kind: dict[str, list[Read]]) -> list[Read]:
    """Interleave seeded lists into a popularity ranking whose kind at
    each rank is the same for every seed (``pattern`` repeats, one letter
    per kind), so the seed picks the pages but not the cost of the mix."""
    lists = {kind: list(reads) for kind, reads in by_kind.items()}
    letters = {kind[0]: kind for kind in lists}
    ranked: list[Read] = []
    for letter in itertools.cycle(pattern):
        if not any(lists.values()):
            return ranked
        remaining = lists[letters[letter]]
        if remaining:
            ranked.append(remaining.pop(0))


def hot_pool(site: Site, rng: random.Random) -> list[Read]:
    """25 pages, ranked volume, paper, volume, paper, home, ..."""
    data = site.dataset
    volumes = rng.sample(range(1, len(data.volumes) + 1), 12)
    papers = rng.sample(range(1, len(data.papers) + 1), 12)
    return _ranked("vpvph", {
        "volume": [site.volume(v) for v in volumes],
        "paper": [site.paper(p) for p in papers],
        "home": [site.home()],
    })


def write_mix_pool(site: Site, rng: random.Random) -> list[Read]:
    """About 200 pages; every Browse block in it precedes the titles
    the writes add (lower-case, so they sort after every seeded one)."""
    data = site.dataset
    papers = rng.sample(range(1, len(data.papers) + 1), 120)
    volumes = list(range(1, len(data.volumes) + 1))
    blocks = list(range(1, 41))
    rng.shuffle(volumes)
    rng.shuffle(blocks)
    return _ranked("vppbpsppvh", {
        "volume": [site.volume(v) for v in volumes],
        "paper": [site.paper(p) for p in papers],
        "browse": [site.browse(b) for b in blocks],
        "search": [site.search(*_keyword(data, rng)) for _ in range(20)],
        "home": [site.home()],
    })


def _keyword(data: Dataset, rng: random.Random) -> tuple[str, str]:
    """Two adjacent title words of a random paper, and that title."""
    title = rng.choice(data.papers).title
    words = title.split()
    start = rng.randrange(len(words) - 1)
    return " ".join(words[start:start + 2]), title


def cold_universe(site: Site, rng: random.Random) -> dict[str, list[Read]]:
    data = site.dataset
    keywords: dict[str, str] = {}
    for paper in data.papers:
        words = paper.title.split()
        start = rng.randrange(len(words) - 1)
        keywords.setdefault(" ".join(words[start:start + 2]), paper.title)
    return {
        "paper": [site.paper(p) for p in range(1, len(data.papers) + 1)],
        "volume": [site.volume(v) for v in range(1, len(data.volumes) + 1)],
        "browse": [site.browse(b) for b in range(1, site.browse_blocks() + 1)],
        "search": [site.search(k, t) for k, t in keywords.items()],
    }


#: the kind of each successive cold_catalog request, repeating: 50% paper
#: details, 25% volume pages, 15% Browse blocks and 10% keyword searches
#: in a fixed order, so every stretch of the stream has the same mix and
#: the seed picks the pages, not the cost of a window
COLD_PATTERN = "pvpbpspvpbpvpspvpbpv"


def read_stream(workload: str, site: Site, seed: int,
                phase: str) -> Iterator[Read]:
    """The endless read stream of ``workload`` for one phase of a run.

    The pools depend on the seed alone; the order also depends on the
    phase, so a phase does not replay the order an earlier one used.
    """
    pool_rng = _rng(seed, f"{workload}-pool")
    order_rng = _rng(seed, f"{workload}-{phase}")
    if workload == "hot_pages":
        return _zipf_stream(order_rng, hot_pool(site, pool_rng), 0.5)
    if workload == "write_mix":
        return _zipf_stream(order_rng, write_mix_pool(site, pool_rng), 0.0)
    if workload == "cold_catalog":
        universe = cold_universe(site, pool_rng)
        cycles = {kind: _cycle_shuffled(order_rng, reads)
                  for kind, reads in universe.items()}
        kinds = {kind[0]: kind for kind in cycles}
        return (next(cycles[kinds[letter]])
                for letter in itertools.cycle(COLD_PATTERN))
    raise ValueError(f"unknown workload {workload!r}")


def distinct_urls(workload: str, site: Site, seed: int) -> int:
    pool_rng = _rng(seed, f"{workload}-pool")
    if workload == "hot_pages":
        return len({r.target for r in hot_pool(site, pool_rng)})
    if workload == "write_mix":
        return len({r.target for r in write_mix_pool(site, pool_rng)})
    return sum(len({r.target for r in reads})
               for reads in cold_universe(site, pool_rng).values())


def arrivals(rate: float, seconds: float, seed: int,
             stream: str = "arrivals") -> list[float]:
    """Poisson arrival offsets (seconds from phase start) at ``rate``/s."""
    rng = _rng(seed, stream)
    times: list[float] = []
    now = rng.expovariate(rate)
    while now < seconds:
        times.append(now)
        now += rng.expovariate(rate)
    return times


def write_title(seed: int, index: int) -> str:
    """A title no seeded paper contains (so a keyword search for it
    matches only the written paper) that sorts after every seeded title."""
    return f"zwrite s{seed} n{index:06d} probe"
