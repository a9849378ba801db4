"""AMR graph -> scene graph conversion.

Two engines: a deterministic rule-based baseline (`convert_rules`) and a
subprocess adapter for an external seq2seq model (`ExternalAdapter` +
`convert_external`). Also exports (linearized AMR, target string) training
pairs for fine-tuning such a model.
"""

from __future__ import annotations

import os
import select
import subprocess
import threading
import time
from dataclasses import dataclass
from operator import itemgetter
from subprocess import DEVNULL, PIPE
from typing import Iterable, Sequence

from .amr import (
    AmrGraph,
    PenmanError,
    is_frame,
    iter_edges,
    iter_nodes,
    parse_penman,
    unquote,
)
from .corpus import filter_ungrounded
from .linearize import LinearizedSequence, Strategy, linearize
from .scenegraph import (
    AttributeTuple,
    ObjectTuple,
    RelationTuple,
    SceneGraph,
    SgError,
    normalize_or_none,
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
_CORE_RANK = {role: rank for rank, role in enumerate(CORE_ROLES)}
_rank = itemgetter(0)


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

    A node's surface form is its normalized frame lemma or concept; a quoted
    concept loses its quotes, as a quoted constant does.
    """
    objects: list[ObjectTuple] = []
    attributes: list[AttributeTuple] = []
    relations: list[RelationTuple] = []

    # Each node is read once: its surface form (None when normalizing leaves
    # nothing), and for a frame, the same form as its lemma. An edge target
    # that is not a key here is a constant.
    surface: dict[str, str | None] = {}
    lemmas: dict[str, str | None] = {}  # frame variables, in declaration order
    for var, concept in iter_nodes(graph):
        if is_frame(concept):
            surface[var] = lemmas[var] = normalize_or_none(concept[:-3])
        else:
            surface[var] = normalize_or_none(unquote(concept))

    # One pass over the edges emits the attribute-role tuples and collects,
    # for each frame, its core children as (rank, role, child) in edge order
    # and its first locative child as (role, child).
    attribute_values = set()
    core: dict[str, list[tuple[int, str, str]]] = {}
    locative: dict[str, tuple[str, str]] = {}
    for source, role, target in iter_edges(graph):
        # a constant is never a key of ``lemmas``, nor a core or locative child
        is_node = target in surface
        if role in ATTRIBUTE_ROLES and target not in lemmas:
            if is_node:
                attribute_values.add(target)
            obj = surface[source]
            attr = surface[target] if is_node else normalize_or_none(unquote(target))
            if obj and attr:
                attributes.append(tuple.__new__(AttributeTuple, (obj, attr)))
        if is_node and source in lemmas:
            rank = _CORE_RANK.get(role)
            if rank is not None:
                core.setdefault(source, []).append((rank, role, target))
            elif role in LOCATIVE_ROLES and source not in locative:
                locative[source] = (role, target)

    for var, name in surface.items():
        if name and var not in lemmas and var not in attribute_values:
            objects.append(tuple.__new__(ObjectTuple, (name,)))

    for var, lemma in lemmas.items():
        children = core.get(var)
        if not lemma or not children:
            continue  # rule 5
        children.sort(key=_rank)  # stable: edge order within a rank
        loc = locative.get(var)
        if len(children) >= 2 or loc:
            subj_var = children[0][2]
            if len(children) >= 2:
                _, obj_role, obj_var = children[1]
            else:
                obj_role, obj_var = loc
            subj = surface[subj_var]
            obj = surface[obj_var]
            if subj and obj:
                if obj_role in LOCATIVE_ROLES:
                    pred = f"{lemma} {LOCATIVE_ROLES[obj_role]}"
                # a frame with an :ARG0 child has it first, CORE_ROLES[0] being :ARG0
                elif obj_role == ":ARG2" and children[0][1] != ":ARG0":
                    pred = f"{lemma} in"
                else:
                    pred = lemma
                relations.append(tuple.__new__(RelationTuple, (subj, pred, obj)))
        else:
            child = surface[children[0][2]]
            if child:
                attributes.append(tuple.__new__(AttributeTuple, (child, lemma)))

    # every field comes out of normalize, or is "<lemma> <preposition>" of two
    # normalized words: already the field rule
    return SceneGraph._unchecked(objects, attributes, relations)


# --- external model adapter ------------------------------------------------


# poll(2) takes its timeout as a C int of milliseconds; longer waits are split.
_POLL_MAX_MS = 2**31 - 1
_READ_SIZE = 65536

MAX_REPLY_BYTES = 16 * 2**20
"""Most bytes ``ExternalAdapter`` holds of one reply line before it gives up
on the child."""

CLOSE_GRACE_S = 5.0
"""Seconds ``ExternalAdapter.close`` gives the child to exit before it kills it."""


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
    started lazily and reused across requests. Replies are read on the calling
    thread, through ``select.poll`` (POSIX only); no background thread runs.
    Not safe for concurrent use from multiple callers; create one adapter per
    worker.
    """

    def __init__(self, command: Sequence[str], timeout: float = 30.0):
        if not 0 < timeout <= threading.TIMEOUT_MAX:
            raise ValueError(f"timeout must be above 0 and at most {threading.TIMEOUT_MAX}")
        self.command = list(command)
        self.timeout = timeout
        self._proc: subprocess.Popen | None = None
        # set by _start, once per child
        self._poll: select.poll
        self._buffer: bytearray

    def _start(self) -> None:
        try:
            self._proc = subprocess.Popen(self.command, stdin=PIPE, stdout=PIPE, stderr=DEVNULL)
        except OSError as err:  # not found, not executable, ...
            raise AdapterCrashed(f"cannot start adapter {self.command!r}: {err.strerror}")
        # Requests are written to a non-blocking stdin, so a child that
        # streams its reply while still reading never stalls the write.
        os.set_blocking(self._proc.stdin.fileno(), False)
        # A fresh buffer per child, so a late line from a killed child never
        # reaches the one that replaces it.
        self._poll = select.poll()
        self._poll.register(self._proc.stdout, select.POLLIN)
        self._buffer = bytearray()

    def request(self, line: str) -> str:
        """Send one line, return the raw response line (newline stripped).

        A line with a line break inside is refused: the child would read it as
        two requests and every later reply would be off by one. The timeout
        covers the whole exchange, waiting for a child's exit after its output
        closes included. A failed exchange kills and reaps the child, and the
        next request starts a fresh one. A reply that is not UTF-8, or that has
        a carriage return other than in a CRLF end, fails only its request: the
        child is kept.
        """
        line = line.rstrip("\n")
        if "\n" in line or "\r" in line:
            raise AdapterError("request contains a line break")
        if self._proc is None:
            self._start()
        proc = self._proc
        deadline = time.monotonic() + self.timeout
        # Both pipes are used through their raw fds, never the buffered files,
        # so poll sees every byte that has not been taken yet.
        in_fd, out_fd, buffer = proc.stdin.fileno(), proc.stdout.fileno(), self._buffer
        data = (line + "\n").encode("utf-8")
        scanned, end = 0, -1
        try:
            # What the pipe does not take at once is written from the poll loop,
            # which reads meanwhile: the child may be blocked on its reply.
            pending = memoryview(data)[self._write(data) :]
            if pending:
                self._poll.register(in_fd, select.POLLOUT)
            while end < 0:
                if not pending:
                    if (end := buffer.find(b"\n", scanned, MAX_REPLY_BYTES + 1)) >= 0:
                        break
                    scanned = len(buffer)
                if len(buffer) > MAX_REPLY_BYTES:
                    raise MalformedModelOutput(f"model output line longer than {MAX_REPLY_BYTES} bytes")
                wait = deadline - time.monotonic()
                if wait <= 0:
                    raise AdapterTimeout(f"no response within {self.timeout}s from {self.command!r}")
                for fd, _ in self._poll.poll(min(wait * 1000, _POLL_MAX_MS)):
                    if fd == in_fd:
                        pending = pending[self._write(pending) :]
                        if not pending:
                            self._poll.unregister(in_fd)
                    elif chunk := os.read(out_fd, _READ_SIZE):
                        buffer += chunk
                    elif buffer and not pending:  # an unterminated last line, then EOF
                        end = len(buffer)
                    else:
                        try:
                            code = proc.wait(deadline - time.monotonic())
                        except subprocess.TimeoutExpired:
                            raise AdapterTimeout(
                                f"no response within {self.timeout}s from {self.command!r}"
                            ) from None
                        raise AdapterCrashed(f"adapter {self.command!r} exited with status {code}")
        except AdapterError:
            proc.kill()
            self.close()
            raise
        response = buffer[:end].removesuffix(b"\r")
        del buffer[: end + 1]
        try:
            text = response.decode("utf-8")
        except UnicodeDecodeError:
            raw = response.decode("utf-8", "replace")
            raise MalformedModelOutput("model output is not one UTF-8 line", raw=raw) from None
        if "\r" in text:
            raise MalformedModelOutput("model output is not one UTF-8 line", raw=text)
        return text

    def _write(self, data: bytes | memoryview) -> int:
        """Write what the child's input pipe takes now; return the byte count."""
        try:
            return os.write(self._proc.stdin.fileno(), data)
        except BlockingIOError:
            return 0
        except OSError:  # BrokenPipeError, ...
            raise AdapterCrashed(f"adapter {self.command!r} closed its input")

    def close(self) -> None:
        if self._proc is not None:
            try:
                self._proc.stdin.close()
            except OSError:
                pass
            try:
                self._proc.wait(timeout=CLOSE_GRACE_S)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
            self._proc.stdout.close()
            self._proc = None
            self._buffer.clear()  # a killed child's partial reply is freed now

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
