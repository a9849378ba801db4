"""Seeded input generators for the benchmark.

Everything here is plain Python data and text; nothing imports amrsg, so a
change to the library or to its tests cannot change a workload. The same
seed always gives the same inputs.

Graph and region sizes follow fixed quantile schedules that the seed only
shuffles. The seed changes every graph and scene graph, but not the size
distribution, so runs with different seeds do the same amount of work.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

# --- vocabulary ------------------------------------------------------------

_BASE_NAMES = """
man woman person people child boy girl dog cat horse cow sheep bird elephant
giraffe zebra bear tree grass sky cloud water snow sand road street sidewalk
building house window door roof wall floor table chair bench bed couch lamp
car bus truck train bike motorcycle boat plane sign pole light fence bag shirt
jacket hat helmet shoe pants glasses umbrella plate bowl cup bottle pizza
cake banana apple orange sandwich phone laptop screen keyboard book clock
vase flower plant leaf branch rock hill mountain field beach wave ocean kite
ball racket skateboard surfboard ski frisbee shadow hair face hand arm leg
head eye ear nose mouth tail wheel tire seat handle mirror counter sink
toilet towel pillow blanket curtain shelf box basket tower bridge train
track platform umpire player bat glove net court line logo letter number
""".split()

_SYLLABLES = ["ba", "ko", "ri", "ta", "mu", "ne", "so", "li", "da", "pe", "vo", "zu"]

# A few hundred object names, like Visual Genome's object vocabulary. Real
# words first, so the most frequent draws look like real scene graphs.
OBJECT_NAMES: list[str] = list(dict.fromkeys(_BASE_NAMES)) + [
    a + b + c for a in _SYLLABLES[:6] for b in _SYLLABLES for c in ("n", "t", "r")
][:180]

ATTRIBUTES: list[str] = """
white black blue red green brown yellow gray orange pink purple silver gold
wooden metal glass plastic large small tall short long big little old young
open closed empty full wet dry dark bright clear cloudy sunny striped round
square flat tiled parked standing sitting walking running smiling wearing
""".split()

PREDICATES: list[str] = [
    "on", "in", "has", "wearing", "of", "near", "with", "behind", "holding",
    "next to", "above", "under", "on top of", "sitting on", "in front of",
    "riding", "standing on", "beside", "carrying", "by", "over", "looking at",
    "along", "against", "inside", "hanging on", "eating", "covering",
    "attached to", "across", "playing", "walking on", "parked on", "laying on",
    "at", "belonging to", "covered in", "lying on", "watching", "made of",
]

FRAMES: list[str] = [
    "stand-01", "sit-01", "hold-01", "wear-01", "ride-01", "eat-01", "carry-01",
    "look-01", "play-01", "walk-01", "park-01", "hang-01", "lie-07", "cover-01",
    "watch-01", "run-02", "fly-01", "swim-01", "throw-01", "catch-01",
]

FRAME_ROLES = [":ARG0", ":ARG0", ":ARG1", ":ARG1", ":ARG2", ":location", ":time"]
NOUN_ROLES = [":mod", ":mod", ":mod", ":part-of", ":location", ":poss", ":domain"]
CONSTANTS = ["-", "1", "2", "3", "42", '"red car"', '"St. Louis"']
_FRAME_SET = frozenset(FRAMES)

_ZIPF_S = 1.1


def _zipf_weights(n: int) -> list[float]:
    return [1.0 / (rank ** _ZIPF_S) for rank in range(1, n + 1)]


_OBJECT_W = _zipf_weights(len(OBJECT_NAMES))
_ATTR_W = _zipf_weights(len(ATTRIBUTES))
_PRED_W = _zipf_weights(len(PREDICATES))


def _draw(rng: random.Random, items: list[str], weights: list[float]) -> str:
    return rng.choices(items, weights)[0]


def size_schedule(count: int, low: int, cap: int, alpha: float) -> list[int]:
    """Fixed long-tailed sizes: Pareto(alpha) quantiles at evenly spaced
    probabilities, floored at ``low`` and capped at ``cap``. Independent of
    the seed; callers shuffle it."""
    sizes = []
    for i in range(count):
        u = (i + 0.5) / count
        sizes.append(min(cap, int(low * (1.0 - u) ** (-1.0 / alpha))))
    return sizes


# --- AMR graphs ------------------------------------------------------------


@dataclass
class GenGraph:
    """A generated AMR graph in the benchmark's own representation.

    ``children[var]`` lists (role, kind, target) in textual order, where kind
    is "node" (a nested declaration), "ref" (a re-entrancy) or "const".
    """

    root: str
    concepts: dict[str, str]
    children: dict[str, list[tuple[str, str, str]]] = field(default_factory=dict)

    @property
    def edge_count(self) -> int:
        return sum(len(c) for c in self.children.values())


def penman_text(g: GenGraph) -> str:
    """Canonical PENMAN text: the form amrsg's serializer must reproduce
    byte for byte (single spaces, children in stored order)."""
    out: list[str] = []
    # iterative pre-order emission so deep graphs need no recursion
    stack: list[object] = [g.root]
    while stack:
        item = stack.pop()
        if isinstance(item, str) and item.startswith(")"):
            out.append(")")
            continue
        if isinstance(item, tuple):
            role, kind, target = item
            if kind == "node":
                out.append(f" {role} ")
                stack.append(target)
            else:
                out.append(f" {role} {target}")
            continue
        var = item
        out.append(f"({var} / {g.concepts[var]}")
        stack.append(")")
        for child in reversed(g.children.get(var, [])):
            stack.append(child)
    return "".join(out)


def random_amr(rng: random.Random, n_nodes: int) -> GenGraph:
    """A random AMR with exactly ``n_nodes`` variables.

    Each new node hangs off a uniformly chosen earlier node, so depth grows
    like log(n). About a third of the concepts are frames. Re-entrancies
    point only at variables declared earlier in the text, as PENMAN needs.
    """
    concepts: dict[str, str] = {}
    children: dict[str, list[tuple[str, str, str]]] = {}
    order: list[str] = []
    for i in range(n_nodes):
        var = f"z{i}"
        if rng.random() < 0.3:
            concepts[var] = rng.choice(FRAMES)
        else:
            concepts[var] = _draw(rng, OBJECT_NAMES, _OBJECT_W)
        children[var] = []
        if order:
            parent = rng.choice(order)
            roles = FRAME_ROLES if concepts[parent] in _FRAME_SET else NOUN_ROLES
            children[parent].append((rng.choice(roles), "node", var))
        order.append(var)
    g = GenGraph(order[0], concepts, children)
    preorder = _preorder(g)
    position = {v: i for i, v in enumerate(preorder)}
    for _ in range(rng.randint(0, max(1, n_nodes // 8))):
        src = rng.choice(preorder)
        earlier = preorder[: position[src]]
        if not earlier:
            continue
        target = rng.choice(earlier)
        roles = FRAME_ROLES if concepts[src] in _FRAME_SET else NOUN_ROLES
        edges = children[src]
        edges.insert(rng.randint(0, len(edges)), (rng.choice(roles), "ref", target))
    for _ in range(rng.randint(0, max(1, n_nodes // 6))):
        src = rng.choice(preorder)
        edges = children[src]
        edges.insert(rng.randint(0, len(edges)), (":quant", "const", rng.choice(CONSTANTS)))
    return g


def _preorder(g: GenGraph) -> list[str]:
    out, stack = [], [g.root]
    while stack:
        var = stack.pop()
        out.append(var)
        for role, kind, target in reversed(g.children[var]):
            if kind == "node":
                stack.append(target)
    return out


def malformed_penman(rng: random.Random, g: GenGraph) -> str:
    """Corrupt a graph's PENMAN text so that any correct parser must reject it
    with a PenmanError. Each corruption is one of the library's error kinds."""
    text = penman_text(g)
    kind = rng.randrange(6)
    if kind == 0:  # missing final ')'
        return text[:-1]
    if kind == 1:  # trailing content
        return text + ")"
    if kind == 2:  # reference to an undeclared variable
        return text[:-1] + " :ARG1 q999)"
    if kind == 3:  # unterminated string literal
        return text[:-1] + ' :name "open'
    if kind == 4:  # variable declared twice
        return text[:-1] + f" :mod ({g.root} / again))"
    return "   "  # nothing but whitespace


# --- scene graphs ----------------------------------------------------------

# Scene graphs are (objects, attributes, relations) of plain string tuples:
# objects [name], attributes [(object, attribute)], relations
# [(subject, predicate, object)]. Every object an attribute or relation names
# is also in objects, so no implementation needs to add objects implicitly.
SG = tuple[list[str], list[tuple[str, str]], list[tuple[str, str, str]]]


def close_objects(sg: SG) -> SG:
    objects, attributes, relations = sg
    present = set(objects)
    objects = list(objects)
    for name in [a[0] for a in attributes] + [n for r in relations for n in (r[0], r[2])]:
        if name not in present:
            objects.append(name)
            present.add(name)
    return objects, list(attributes), list(relations)


def sg_json(sg: SG) -> dict:
    objects, attributes, relations = sg
    return {
        "objects": [[o] for o in objects],
        "attributes": [list(a) for a in attributes],
        "relations": [list(r) for r in relations],
    }


def sg_tuples(sg: SG) -> list[tuple[str, ...]]:
    objects, attributes, relations = sg
    return [(o,) for o in objects] + [tuple(a) for a in attributes] + [tuple(r) for r in relations]


def random_region(rng: random.Random, n_objects: int, n_attributes: int, n_relations: int) -> SG:
    """A Visual-Genome-like region graph over the Zipf vocabulary."""
    objects = [_draw(rng, OBJECT_NAMES, _OBJECT_W) for _ in range(n_objects)]
    attributes = [(rng.choice(objects), _draw(rng, ATTRIBUTES, _ATTR_W)) for _ in range(n_attributes)]
    relations = [
        (rng.choice(objects), _draw(rng, PREDICATES, _PRED_W), rng.choice(objects))
        for _ in range(n_relations)
    ]
    return objects, attributes, relations


def perturb(rng: random.Random, sg: SG, p_drop: float, p_replace: float) -> SG:
    """Drop some tuples, and replace the name, attribute value or predicate
    of others."""
    objects, attributes, relations = sg
    out_o = []
    for o in objects:
        r = rng.random()
        if r < p_drop:
            continue
        out_o.append(_draw(rng, OBJECT_NAMES, _OBJECT_W) if r < p_drop + p_replace else o)
    out_a = []
    for obj, attr in attributes:
        r = rng.random()
        if r < p_drop:
            continue
        out_a.append((obj, _draw(rng, ATTRIBUTES, _ATTR_W)) if r < p_drop + p_replace else (obj, attr))
    out_r = []
    for s, p, o in relations:
        r = rng.random()
        if r < p_drop:
            continue
        out_r.append((s, _draw(rng, PREDICATES, _PRED_W), o) if r < p_drop + p_replace else (s, p, o))
    return close_objects((out_o, out_a, out_r))


def query_from(rng: random.Random, sg: SG) -> SG:
    """A retrieval query made from a gold region: a quarter of its
    attributes and relations dropped, and some names, attribute values and
    predicates replaced. Its size depends only on the region's size."""
    objects, attributes, relations = sg
    referenced = {a[0] for a in attributes} | {n for r in relations for n in (r[0], r[2])}
    links = [("a", a) for a in attributes] + [("r", r) for r in relations]
    rng.shuffle(links)
    links = links[len(links) // 4 :]
    out_o = [
        _draw(rng, OBJECT_NAMES, _OBJECT_W) if o not in referenced and rng.random() < 0.15 else o
        for o in objects
    ]
    out_a, out_r = [], []
    for kind, t in links:
        replace = rng.random() < 0.15
        if kind == "a":
            out_a.append((t[0], _draw(rng, ATTRIBUTES, _ATTR_W)) if replace else t)
        else:
            out_r.append((t[0], _draw(rng, PREDICATES, _PRED_W), t[2]) if replace else t)
    return out_o, out_a, out_r


def rule_like_sg(g: GenGraph) -> SG:
    """A rough scene graph read off the generated AMR: non-frame concepts are
    objects, :mod children are attributes, frames with two or more
    participants are relations. It approximates a rule converter's output
    without sharing code with one."""
    objects, attributes, relations = [], [], []
    for var, concept in g.concepts.items():
        if concept not in _FRAME_SET:
            objects.append(concept)
    for var, edges in g.children.items():
        concept = g.concepts[var]
        args = [g.concepts[t] for _, kind, t in edges if kind in ("node", "ref")]
        args = [a for a in args if a not in _FRAME_SET]
        if concept in _FRAME_SET:
            if len(args) >= 2:
                relations.append((args[0], concept[:-3], args[1]))
        else:
            for role, kind, t in edges:
                if role == ":mod" and kind == "node" and g.concepts[t] not in _FRAME_SET:
                    attributes.append((concept, g.concepts[t]))
    return close_objects((objects, attributes, relations))


# --- workload inputs -------------------------------------------------------


@dataclass
class CorpusInput:
    lines: list[str]  # JSONL, including deliberately malformed lines
    bad_json_lines: int
    malformed_amr: dict[str, bool]  # region id -> AMR must be rejected
    canonical: dict[str, str]  # region id -> canonical PENMAN text
    node_counts: dict[str, int]
    edge_counts: dict[str, int]


def corpus_input(seed: int, n_records: int) -> CorpusInput:
    """Region records with an AMR, a description and a reference scene graph.

    About 2% of records carry malformed AMR and one line in 200 is not a
    valid record at all. The reference is a perturbation of a rule-like
    reading of the AMR, so F1 against a converter's output lies inside (0, 1).
    """
    rng = random.Random(f"corpus-{seed}")
    sizes = size_schedule(n_records, low=4, cap=160, alpha=1.3)
    rng.shuffle(sizes)
    lines, malformed, canonical, nodes, edges = [], {}, {}, {}, {}
    bad = 0
    for i, size in enumerate(sizes):
        if i % 200 == 199:
            lines.append('{"image_id": "broken", "region_id": ' if i % 400 == 199 else '{"image_id": "x"}')
            bad += 1
        g = random_amr(rng, size)
        image_id = f"img{i // 4}"
        region_id = f"{image_id}_r{i % 4}"
        is_bad = i % 50 == 17
        text = malformed_penman(rng, g) if is_bad else penman_text(g)
        reference = perturb(rng, rule_like_sg(g), p_drop=0.2, p_replace=0.15)
        if not reference[0]:
            reference = (["thing"], [], [])
        words = [o for o in reference[0] if rng.random() < 0.9] or reference[0][:1]
        description = "a " + " and ".join(dict.fromkeys(words)) + " in the scene"
        lines.append(
            json.dumps(
                {
                    "image_id": image_id,
                    "region_id": region_id,
                    "description": description,
                    "scene_graph": sg_json(reference),
                    "amr": text,
                }
            )
        )
        malformed[region_id] = is_bad
        canonical[region_id] = penman_text(g)
        nodes[region_id] = len(g.concepts)
        edges[region_id] = g.edge_count
    return CorpusInput(lines, bad, malformed, canonical, nodes, edges)


@dataclass
class RetrievalInput:
    index_lines: list[str]  # one JSON image per line, as save_index writes
    regions: list[tuple[str, list[SG]]]  # image id -> region graphs
    queries: list[tuple[str, SG, str]]  # (query id, graph, gold image id)


def retrieval_input(seed: int, n_images: int, regions_per_image: int, n_queries: int) -> RetrievalInput:
    """An index of images x regions over a Visual-Genome-like vocabulary.

    Region sizes come from fixed schedules, and queries are made from gold
    regions taken at evenly spaced quantiles of region size, so every seed
    ranks the same amount of tuples. One image in 40 is an exact copy of
    another image, so scores tie and the image-id tie-break decides ranks.
    One query in 50 is the empty graph.
    """
    rng = random.Random(f"retrieval-{seed}")
    n_regions = n_images * regions_per_image
    n_objects = size_schedule(n_regions, low=2, cap=8, alpha=2.0)
    n_attributes = [i % 4 for i in range(n_regions)]
    n_relations = [i % 3 for i in range(n_regions)]
    for schedule in (n_objects, n_attributes, n_relations):
        rng.shuffle(schedule)
    images: list[tuple[str, list[SG]]] = []
    for i in range(n_images):
        image_id = f"im{i:05d}"
        if i % 40 == 39:
            regions = images[rng.randrange(len(images))][1]
        else:
            regions = []
            for k in range(i * regions_per_image, (i + 1) * regions_per_image):
                regions.append(random_region(rng, n_objects[k], n_attributes[k], n_relations[k]))
        images.append((image_id, regions))
    rng.shuffle(images)
    index_lines = [
        json.dumps({"image_id": image_id, "regions": [sg_json(r) for r in regions]})
        for image_id, regions in images
    ]
    by_size = [(sum(len(part) for part in r), rng.random(), image_id, r) for image_id, regions in images for r in regions]
    by_size.sort(key=lambda item: item[:2])
    queries = []
    for q in range(n_queries):
        _, _, image_id, region = by_size[int((q + 0.5) * len(by_size) / n_queries)]
        sg: SG = ([], [], []) if q % 50 == 49 else query_from(rng, region)
        queries.append((f"q{q:04d}", sg, image_id))
    rng.shuffle(queries)
    return RetrievalInput(index_lines, images, queries)


@dataclass
class AdapterInput:
    penman: str  # a PENMAN file with one ::id per graph
    canonical: list[str]  # canonical text per graph, in file order
    node_counts: list[int]
    edge_counts: list[int]


def adapter_input(seed: int, n_graphs: int) -> AdapterInput:
    rng = random.Random(f"adapter-{seed}")
    sizes = size_schedule(n_graphs, low=4, cap=160, alpha=1.3)
    rng.shuffle(sizes)
    blocks, canonical, nodes, edges = [], [], [], []
    for i, size in enumerate(sizes):
        g = random_amr(rng, size)
        text = penman_text(g)
        blocks.append(f"# ::id g{i}\n{text}\n")
        canonical.append(text)
        nodes.append(len(g.concepts))
        edges.append(g.edge_count)
    return AdapterInput("\n".join(blocks), canonical, nodes, edges)
