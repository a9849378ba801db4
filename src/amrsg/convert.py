"""AMR graph -> scene graph conversion.

Two engines: a deterministic rule-based baseline (`convert_rules`) and a
subprocess adapter for an external seq2seq model (`ExternalAdapter` +
`convert_external`). Also exports (linearized AMR, target string) training
pairs for fine-tuning such a model.
"""

from __future__ import annotations

import queue
import subprocess
import threading
from dataclasses import dataclass
from subprocess import DEVNULL, PIPE
from typing import Iterable, Sequence

from .amr import (
    AmrGraph,
    Constant,
    PenmanError,
    children_index,
    frame_lemma,
    is_frame,
    parse_penman,
)
from .corpus import filter_ungrounded
from .linearize import LinearizedSequence, Strategy, linearize
from .scenegraph import (
    AttributeTuple,
    EmptyAfterNormalization,
    ObjectTuple,
    RelationTuple,
    SceneGraph,
    SgError,
    normalize,
    parse_sg_text,
    serialize_sg,
)


# Roles of the rule-based baseline. Attribute-role edges become (object,
# attribute) pairs; core roles, in preference order, pick a relation's subject
# and object; a locative role appends its preposition to the frame lemma when
# the relation object arrives on it. An object reached via :ARG2 on a frame
# with no :ARG0 child is also treated as locative ("in"), which covers
# locative-intransitive frames like stand-01.
ATTRIBUTE_ROLES = frozenset({":mod"})
CORE_ROLES = (":ARG0", ":ARG1", ":ARG2")
LOCATIVE_ROLES = {":location": "in"}


def _surface(graph: AmrGraph, target) -> str | None:
    """Normalized surface form of an edge target or node concept."""
    if isinstance(target, Constant):
        raw = target.value
    else:
        raw = frame_lemma(graph.nodes[target])
    try:
        return normalize(raw)
    except EmptyAfterNormalization:
        return None


def convert_rules(graph: AmrGraph) -> SceneGraph:
    """Deterministic rule-based AMR -> scene graph baseline.

    1. every non-frame concept node -> object, except nodes consumed as
       attribute values by rule 2
    2. attribute-role edge to a non-frame concept or constant -> attribute
    3. frame with >= 2 core/locative children -> relation (subject = best
       core child, object = next core or locative child, predicate = frame
       lemma, "+ in" when the object edge was locative)
    4. frame with exactly one core child -> attribute (child, lemma)
    5. frame with no core children -> dropped
    """
    objects: list[ObjectTuple] = []
    attributes: list[AttributeTuple] = []
    relations: list[RelationTuple] = []

    attribute_values = {
        e.target
        for e in graph.edges
        if e.role in ATTRIBUTE_ROLES
        and isinstance(e.target, str)
        and not is_frame(graph.nodes[e.target])
    }

    for var, concept in graph.nodes.items():
        if not is_frame(concept) and var not in attribute_values:
            name = _surface(graph, var)
            if name:
                objects.append(ObjectTuple(name))

    for e in graph.edges:
        if e.role not in ATTRIBUTE_ROLES:
            continue
        if isinstance(e.target, str) and is_frame(graph.nodes[e.target]):
            continue
        obj = _surface(graph, e.source)
        attr = _surface(graph, e.target)
        if obj and attr:
            attributes.append(AttributeTuple(obj, attr))

    index = children_index(graph)
    for var, concept in graph.nodes.items():
        if not is_frame(concept):
            continue
        try:
            lemma = normalize(frame_lemma(concept))
        except EmptyAfterNormalization:
            continue
        out = [e for _, e in index.get(var, ()) if isinstance(e.target, str)]
        core: list[tuple[str, str]] = []  # (role, child var) in preference order
        for role in CORE_ROLES:
            core.extend((e.role, e.target) for e in out if e.role == role)
        locative = [(e.role, e.target) for e in out if e.role in LOCATIVE_ROLES]
        has_arg0 = any(role == ":ARG0" for role, _ in core)

        if not core:
            continue  # rule 5
        if len(core) >= 2 or locative:
            subj_role, subj_var = core[0]
            if len(core) >= 2:
                obj_role, obj_var = core[1]
            else:
                obj_role, obj_var = locative[0]
            subj = _surface(graph, subj_var)
            obj = _surface(graph, obj_var)
            if subj and obj:
                if obj_role in LOCATIVE_ROLES:
                    pred = f"{lemma} {LOCATIVE_ROLES[obj_role]}"
                elif obj_role == ":ARG2" and not has_arg0:
                    pred = f"{lemma} in"
                else:
                    pred = lemma
                relations.append(RelationTuple(subj, pred, obj))
        else:
            child = _surface(graph, core[0][1])
            if child:
                attributes.append(AttributeTuple(child, lemma))

    return SceneGraph(objects, attributes, relations)


# --- external model adapter ------------------------------------------------


class AdapterError(RuntimeError):
    def __init__(self, message: str, raw: str | None = None):
        super().__init__(message)
        self.raw = raw


class AdapterTimeout(AdapterError):
    pass


class AdapterCrashed(AdapterError):
    pass


class MalformedModelOutput(AdapterError):
    pass


class ExternalAdapter:
    """Line-protocol child process: one request line in, one response line out.

    ``command`` is an argument list, as for ``subprocess.Popen``. The child is
    started lazily and reused across requests. Not safe for concurrent use
    from multiple callers; create one adapter per worker.
    """

    def __init__(self, command: Sequence[str], timeout: float = 30.0):
        if not 0 < timeout <= threading.TIMEOUT_MAX:
            raise ValueError(f"timeout must be above 0 and at most {threading.TIMEOUT_MAX}")
        self.command = list(command)
        self.timeout = timeout
        self._proc: subprocess.Popen | None = None
        self._lines: queue.Queue[bytes | None] = queue.Queue()

    def _start(self) -> None:
        try:
            self._proc = subprocess.Popen(self.command, stdin=PIPE, stdout=PIPE, stderr=DEVNULL)
        except OSError as err:  # not found, not executable, ...
            raise AdapterCrashed(f"cannot start adapter {self.command!r}: {err.strerror}")
        # A fresh queue per child, so a late line from a killed child never
        # reaches the one that replaces it.
        self._lines = queue.Queue()
        threading.Thread(
            target=self._pump, args=(self._proc.stdout, self._lines), daemon=True
        ).start()

    @staticmethod
    def _pump(stdout, lines: queue.Queue[bytes | None]) -> None:
        with stdout:
            for line in stdout:
                lines.put(line)
        lines.put(None)  # EOF marker

    def request(self, line: str) -> str:
        """Send one line, return the raw response line (newline stripped).

        A line with a line break inside is refused: the child would read it as
        two requests and every later reply would be off by one. Lines are UTF-8; a
        reply that is not, or that has a carriage return other than in a CRLF end,
        is a MalformedModelOutput, and the child is kept. A child that times out,
        exits or closes its input is reaped, and the next request starts a fresh one.
        """
        line = line.rstrip("\n")
        if "\n" in line or "\r" in line:
            raise AdapterError("request contains a line break")
        if self._proc is None:
            self._start()
        assert self._proc is not None and self._proc.stdin is not None
        try:
            self._proc.stdin.write((line + "\n").encode("utf-8"))
            self._proc.stdin.flush()
        except (BrokenPipeError, OSError):
            self._proc.kill()
            self.close()
            raise AdapterCrashed(f"adapter {self.command!r} closed its input")
        try:
            response = self._lines.get(timeout=self.timeout)
        except queue.Empty:
            self._proc.kill()
            self.close()
            raise AdapterTimeout(f"no response within {self.timeout}s from {self.command!r}")
        if response is None:
            code = self._proc.wait()
            self.close()
            raise AdapterCrashed(f"adapter {self.command!r} exited with status {code}")
        response = response.rstrip(b"\n").removesuffix(b"\r")
        text = response.decode("utf-8", "replace")
        # a reply that does not survive the round trip was not valid UTF-8
        if "\r" in text or text.encode("utf-8") != response:
            raise MalformedModelOutput("model output is not one UTF-8 line", raw=text)
        return text

    def close(self) -> None:
        if self._proc is not None:
            if self._proc.stdin is not None:
                try:
                    self._proc.stdin.close()
                except OSError:
                    pass
            try:
                self._proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self._proc.kill()
            self._proc = None

    def __enter__(self) -> "ExternalAdapter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def convert_external(seq: LinearizedSequence, adapter: ExternalAdapter) -> SceneGraph:
    """One round trip through the external model; response must be one line
    in the scene-graph target grammar."""
    raw = adapter.request(seq.text)
    try:
        return parse_sg_text(raw)
    except SgError as err:
        raise MalformedModelOutput(f"unparseable model output: {err}", raw=raw)


# --- training-pair export --------------------------------------------------


@dataclass(frozen=True)
class TrainingPair:
    input: str
    target: str
    region_id: str
    strategy: str


def export_training_pairs(
    records: Iterable,
    strategy: Strategy,
    apply_filter: bool = True,
) -> tuple[list[TrainingPair], int]:
    """Build (linearized AMR, serialized scene graph) pairs from region records.

    Records without a parseable AMR are skipped; returns (pairs, skip count).
    With apply_filter, tuples ungrounded in the description are dropped from
    the target first.
    """
    pairs: list[TrainingPair] = []
    skipped = 0
    for record in records:
        if not record.amr:
            skipped += 1
            continue
        try:
            graph = parse_penman(record.amr)
        except PenmanError:
            skipped += 1
            continue
        target_record = filter_ungrounded(record) if apply_filter else record
        pairs.append(
            TrainingPair(
                input=linearize(graph, strategy).text,
                target=serialize_sg(target_record.scene_graph),
                region_id=record.region_id,
                strategy=strategy.value,
            )
        )
    return pairs, skipped
