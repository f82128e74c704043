"""The seeded ACM dataset the benchmark serves.

Both processes build it from the same seed: the server loads it through
``WebApplication.seed_entity`` / ``connect_instances``, the client uses
it to know what every page must contain.  Rows are inserted in list
order, so the oid of ``papers[i]`` is ``i + 1`` (and likewise for every
other entity); the server checks that before it listens.

Shape: 20 volumes x 6 issues x 10 papers = 1,200 papers.  Titles are
3-6 words drawn from a vocabulary, abstracts vary from 40 to 160 words,
and every paper has 1-4 distinct authors from a pool, so the Paper
details page's N:M author join always returns rows.  No
generated text contains characters that HTML escaping would change,
which lets the client look for titles verbatim in response bodies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

VOLUMES = 20
ISSUES_PER_VOLUME = 6
PAPERS_PER_ISSUE = 10
AUTHOR_POOL = 400
MAX_AUTHORS_PER_PAPER = 4

ADMIN_USER = ("admin", "secret")

MONTHS = ("January", "March", "May", "July", "September", "November")

TITLE_WORDS = (
    "Adaptive", "Query", "Processing", "Views", "Materialized", "Caching",
    "Hypertext", "Models", "Web", "Applications", "Data", "Intensive",
    "Declarative", "Design", "Conceptual", "Schema", "Evolution", "Indexing",
    "Streams", "Transactions", "Recovery", "Logging", "Replication",
    "Consistency", "Distributed", "Parallel", "Joins", "Optimization",
    "Cost", "Estimation", "Cardinality", "Sampling", "Histograms",
    "Workloads", "Benchmarks", "Presentation", "Templates", "Markup",
    "Navigation", "Links", "Pages", "Units", "Services", "Descriptors",
    "Generation", "Code", "Mapping", "Relational", "Entities",
    "Relationships", "Semantics", "Integration", "Mediation", "Wrappers",
    "XML", "Documents", "Personalization", "Profiles", "Devices", "Mobile",
    "Portals", "Catalogs", "Search", "Ranking", "Retrieval", "Keywords",
    "Sessions", "Security", "Access", "Control", "Scalable", "Servers",
    "Clusters", "Latency", "Throughput", "Invalidation", "Fragments",
    "Components", "Runtime", "Engines",
)

ABSTRACT_WORDS = tuple(word.lower() for word in TITLE_WORDS) + (
    "we", "present", "a", "novel", "approach", "to", "the", "of", "and",
    "for", "in", "with", "results", "show", "that", "our", "method",
    "improves", "over", "prior", "work", "experiments", "on", "real",
)

FIRST_NAMES = (
    "Ada", "Alan", "Barbara", "Carlo", "Dana", "Edgar", "Elena", "Frances",
    "Grace", "Hector", "Ines", "Jim", "Kenji", "Laura", "Marco", "Nadia",
    "Oscar", "Piero", "Rosa", "Stefano",
)

SURNAMES = (
    "Ceri", "Fraternali", "Bongio", "Brambilla", "Comai", "Matera",
    "Codd", "Gray", "Stonebraker", "Bernstein", "Widom", "Ullman",
    "Garcia", "Halevy", "Abiteboul", "Vianu", "Florescu", "Levy",
    "Mendelzon", "Atzeni", "Mecca", "Merialdo", "Papakonstantinou",
    "Chaudhuri", "Weikum", "Naughton", "DeWitt", "Lohman", "Haas",
)


@dataclass
class Paper:
    title: str
    abstract: str
    pages: int
    issue: int  # oid of its issue
    authors: list[int] = field(default_factory=list)  # author oids


@dataclass
class Dataset:
    """Everything the benchmark loads, in insertion (oid) order."""

    seed: int
    volumes: list[dict]
    issues: list[dict]  # each carries "volume": the volume oid
    papers: list[Paper]
    authors: list[str]

    def row_counts(self) -> dict[str, int]:
        return {
            "volumes": len(self.volumes),
            "issues": len(self.issues),
            "papers": len(self.papers),
            "authors": len(self.authors),
            "authorships": sum(len(p.authors) for p in self.papers),
            "users": 1,
        }

    def paper(self, oid: int) -> Paper:
        return self.papers[oid - 1]

    def papers_of_volume(self, volume_oid: int) -> list[int]:
        """Paper oids shown on a volume page, in issue order."""
        issue_oids = [
            index + 1 for index, issue in enumerate(self.issues)
            if issue["volume"] == volume_oid
        ]
        return [
            index + 1 for index, paper in enumerate(self.papers)
            if paper.issue in issue_oids
        ]

    def titles_by_title(self) -> list[str]:
        """Every title in ``ORDER BY title`` order (the scroller's)."""
        return sorted(paper.title for paper in self.papers)


def _words(rng: random.Random, vocabulary, low: int, high: int) -> list[str]:
    return [rng.choice(vocabulary) for _ in range(rng.randint(low, high))]


def generate(seed: int) -> Dataset:
    """The dataset for ``seed``: same seed, same rows."""
    rng = random.Random(f"perfbench-dataset-{seed}")
    volumes = []
    for number in range(1, VOLUMES + 1):
        topic = " ".join(_words(rng, TITLE_WORDS, 2, 3))
        volumes.append({
            "number": number,
            "year": 1983 + number,
            "title": f"Volume {number} on {topic}",
        })
    issues = []
    for volume_oid in range(1, VOLUMES + 1):
        for number in range(1, ISSUES_PER_VOLUME + 1):
            issues.append({
                "number": number,
                "month": MONTHS[number - 1],
                "volume": volume_oid,
            })
    authors: list[str] = []
    seen_authors: set[str] = set()
    while len(authors) < AUTHOR_POOL:
        name = (f"{rng.choice(FIRST_NAMES)} {rng.choice('ABCDEFGHLMPRS')}. "
                f"{rng.choice(SURNAMES)}")
        if name not in seen_authors:
            seen_authors.add(name)
            authors.append(name)
    papers: list[Paper] = []
    seen_titles: set[str] = set()
    for issue_oid in range(1, len(issues) + 1):
        for _ in range(PAPERS_PER_ISSUE):
            while True:
                title = " ".join(_words(rng, TITLE_WORDS, 3, 6))
                if title not in seen_titles:
                    break
            seen_titles.add(title)
            abstract = " ".join(_words(rng, ABSTRACT_WORDS, 40, 160))
            paper_authors = rng.sample(
                range(1, AUTHOR_POOL + 1),
                rng.randint(1, MAX_AUTHORS_PER_PAPER),
            )
            papers.append(Paper(title=title, abstract=abstract,
                                pages=rng.randint(4, 40), issue=issue_oid,
                                authors=paper_authors))
    return Dataset(seed=seed, volumes=volumes, issues=issues, papers=papers,
                   authors=authors)


def load(app, dataset: Dataset) -> None:
    """Insert ``dataset`` into a fresh ACM application, in one transaction.

    Raises ``RuntimeError`` when the database assigns oids other than
    the insertion positions the client relies on.
    """
    database = app.database
    with database.transaction():
        _expect(app.seed_entity("Volume", dataset.volumes), len(dataset.volumes))
        _expect(app.seed_entity("Issue", [
            {"number": issue["number"], "month": issue["month"],
             "VolumeToIssue": issue["volume"]}
            for issue in dataset.issues
        ]), len(dataset.issues))
        _expect(app.seed_entity("Author", [
            {"name": name} for name in dataset.authors
        ]), len(dataset.authors))
        _expect(app.seed_entity("Paper", [
            {"title": paper.title, "abstract": paper.abstract,
             "pages": paper.pages, "IssueToPaper": paper.issue}
            for paper in dataset.papers
        ]), len(dataset.papers))
        for oid, paper in enumerate(dataset.papers, start=1):
            for author_oid in paper.authors:
                app.connect_instances("Authorship", oid, author_oid)
        user, password = ADMIN_USER
        app.seed_entity("User", [{"username": user, "password": password}])


def _expect(oids: list[int], count: int) -> None:
    if oids != list(range(1, count + 1)):
        raise RuntimeError(
            f"seeded oids {oids[:3]}... are not 1..{count}: the client "
            "could not name the rows it asks for"
        )
