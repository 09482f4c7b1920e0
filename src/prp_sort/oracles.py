"""Comparison oracles and the batching executor.

Oracles answer ordered pairwise relevance questions. The executor is the one
place where groups of independent questions are turned into counted inference
calls, and the one place that caches answers: a group of g requests with h
cache hits costs ceil((g - h) / batch_size) calls, each a chunk of misses
asked through ``compare`` if it holds one request, else ``compare_batch``.
A single question (heapsort's, bubblesort's) goes through ``ask``, which
charges it as a one-request group without building one. Grouping never
changes answers, only the ledger; a cache hit repeats the pair's first answer.
"""

from __future__ import annotations

import json
import os
import re
import threading
import urllib.parse
import warnings
from contextlib import closing
from dataclasses import dataclass
from functools import lru_cache, wraps
from random import Random
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, NamedTuple, Sequence

from .errors import BackendFailure, InvalidConfig, ParseFallbackWarning
from .model import _FIRST, _SECOND, Candidate, CostLedger, DocId, Preference
from .seeding import stable_seed

if TYPE_CHECKING:
    import select
    import socket


class ComparisonRequest(NamedTuple):
    """One ordered pairwise question: is ``first`` more relevant than ``second``?"""

    first: DocId
    second: DocId


class Oracle:
    """Answers pairwise relevance questions.

    Subclasses must be deterministic for a fixed configuration and seed. The
    executor asks a one-request chunk through ``compare`` and a wider one
    through ``compare_batch``, each as one inference call. Defining
    ``compare`` is enough; a subclass that overrides ``compare_batch`` must
    answer ``compare`` the same way, as ``LlmOracle`` does. An oracle holds
    nothing to close: ``LlmOracle`` sends over a connection its caller owns.

    The sorters and the executor ask every oracle plain ``(first, second)``
    tuples, which are cheaper to build. A subclass defined outside this
    module has each ``compare`` and ``compare_batch`` of its own class body
    wrapped when the class is made: the method gets ``ComparisonRequest``s,
    whose ``.first`` and ``.second`` it may read, and its answers must be
    one ``Preference`` per request, else InvalidConfig before the executor
    counts or memoizes the call. An inherited method stays as its class made
    it: the package's unpack pairs and always answer a ``Preference``.
    """

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        if cls.__module__ != __name__:
            for name in ("compare", "compare_batch"):
                if name in vars(cls):
                    setattr(cls, name, _asking_requests(name, vars(cls)[name]))

    def compare(self, req: ComparisonRequest) -> Preference:
        raise NotImplementedError

    def compare_batch(self, reqs: Sequence[ComparisonRequest]) -> list[Preference]:
        """Resolve a chunk of independent requests in one logical call.

        The default answers them one by one; backends with real batch
        support override this.
        """
        return [self.compare(r) for r in reqs]


def _asking_requests(name: str, method: Callable[..., Any]) -> Callable[..., Any]:
    """An outside judge's ``compare`` or ``compare_batch`` (``name``), handed
    each plain pair as a ``ComparisonRequest``, with its answers checked."""
    if name == "compare":

        @wraps(method)
        def compare(self: Oracle, req: tuple[DocId, DocId]) -> Preference:
            return _checked(self, method(self, ComparisonRequest(*req)))

        return compare

    @wraps(method)
    def compare_batch(self: Oracle, reqs: Sequence[tuple[DocId, DocId]]) -> list[Preference]:
        answers = method(self, [ComparisonRequest(*req) for req in reqs])
        if not isinstance(answers, (list, tuple)) or len(answers) != len(reqs):
            got = f"{len(answers)} answers" if isinstance(answers, (list, tuple)) else repr(answers)
            raise InvalidConfig(f"{type(self).__name__} answered {len(reqs)} requests with {got}")
        return [_checked(self, answer) for answer in answers]

    return compare_batch


def _checked(oracle: Oracle, answer: Preference) -> Preference:
    if answer is not _FIRST and answer is not _SECOND:
        raise InvalidConfig(f"{type(oracle).__name__} answered {answer!r}, not a Preference")
    return answer


class ScoreOracle(Oracle):
    """Ground-truth judge over a score map.

    The larger score wins; exact ties go to the lexicographically smaller
    id, so the induced order is strict and total. Comparing a document with
    itself is an error, checked on a tie, where every self-pair lands; a
    document without a score is reported first.
    """

    def __init__(self, scores: Mapping[DocId, float]):
        self._scores = dict(scores)

    def compare(self, req: tuple[DocId, DocId]) -> Preference:
        a, b = req
        scores = self._scores
        try:
            sa = scores[a]
            sb = scores[b]
        except KeyError as exc:
            raise InvalidConfig(f"no score for document {exc.args[0]!r}") from None
        if sa > sb:
            return _FIRST
        if sb > sa:
            return _SECOND
        if a == b:  # a self-pair ties, NaN scores included
            raise InvalidConfig(f"cannot compare document {a!r} with itself")
        return _FIRST if a < b else _SECOND


class NoisyOracle(Oracle):
    """Wraps a base oracle and flips its answer with a fixed probability.

    The flip decision is keyed on (seed, unordered pair), not on the query
    event, so the same unordered pair always answers the same way within a
    run even without a cache. flip_probability 0 reproduces the base oracle
    exactly; 1 inverts it everywhere. Each oracle draws a pair's flip once
    and keeps it: a memo of a pure function, so it changes no answer, and
    the ledger still counts every call.
    """

    def __init__(self, base: Oracle, flip_probability: float, seed: int):
        if not 0.0 <= flip_probability <= 1.0:
            raise InvalidConfig(f"flip_probability must be in [0, 1], got {flip_probability}")
        self.base = base
        self.flip_probability = flip_probability
        self.seed = seed
        self._flips: dict[tuple[DocId, DocId], bool] = {}

    def compare(self, req: tuple[DocId, DocId]) -> Preference:
        answer = self.base.compare(req)
        a, b = req
        lo, hi = pair = (a, b) if a < b else (b, a)
        flip = self._flips.get(pair)
        if flip is None:
            draw = Random(stable_seed("flip", self.seed, lo, hi)).random()
            flip = self._flips[pair] = draw < self.flip_probability
        return answer.flipped() if flip else answer


class BatchExecutor:
    """Submits independent comparison groups, and single questions through
    ``ask`` as groups of one, and accounts their cost.

    One executor serves exactly one algorithm run. With ``use_cache`` it
    keeps a run-scoped memo of every answered pair, stored in both
    orientations, so (a, b) and (b, a) share one inference and a repeat is
    answered for free; a group's misses are its size less its cache hits.
    The memo's keys are the requests as the sorters ask them, plain
    ``(first, second)`` tuples, each stored with its ``(second, first)``
    twin; a ``ComparisonRequest`` hashes and compares equal to its tuple.
    """

    def __init__(self, batch_size: int = 1, use_cache: bool = False):
        if batch_size < 1:
            raise InvalidConfig(f"batch_size must be >= 1, got {batch_size}")
        self.batch_size = batch_size
        self.use_cache = use_cache
        self.ledger = CostLedger()
        self._memo: dict[tuple[DocId, DocId], Preference] | None = {} if use_cache else None

    def submit_group(
        self, oracle: Oracle, group: Sequence[tuple[DocId, DocId]]
    ) -> list[Preference]:
        """Answer every request in order and charge the ledger.

        Requests must be mutually independent (no request's construction may
        depend on another's outcome). Every request is looked up in the memo
        before any is resolved; the misses go to the oracle in chunks of at
        most batch_size, each chunk costing one inference call. The memo is
        written only after a chunk returns, so a backend failure aborts the
        group with only the completed chunks counted and memoized.
        """
        ledger = self.ledger
        ledger.comparisons += len(group)
        memo = self._memo
        if memo is None:
            return self._resolve(oracle, group) if group else []
        answers = [memo.get(req) for req in group]
        miss_at = [idx for idx, hit in enumerate(answers) if hit is None]
        ledger.cache_hits += len(group) - len(miss_at)
        if miss_at:
            prefs = self._resolve(oracle, [group[idx] for idx in miss_at])
            for idx, pref in zip(miss_at, prefs):
                answers[idx] = pref
        return answers  # type: ignore[return-value]

    def ask(self, oracle: Oracle, req: tuple[DocId, DocId]) -> Preference:
        """Answer one request as a group of its own, under ``submit_group``'s
        ledger and memo rules; the oracle's ``compare`` gets ``req`` itself."""
        ledger = self.ledger
        ledger.comparisons += 1
        memo = self._memo
        if memo is not None:
            answer = memo.get(req)
            if answer is not None:
                ledger.cache_hits += 1
                return answer
        ledger.batch_groups += 1
        answer = oracle.compare(req)
        ledger.inference_calls += 1
        if memo is not None:
            memo[req] = answer
            memo[(req[1], req[0])] = _SECOND if answer is _FIRST else _FIRST
        return answer

    def _resolve(self, oracle: Oracle, misses: Sequence[tuple[DocId, DocId]]) -> list[Preference]:
        """Answer one or more misses as one batch group, in chunks of at most
        batch_size: a one-request chunk through ``compare``, a wider one
        through ``compare_batch``. Each chunk is counted as a call, and
        memoized in both orientations, only after it returns."""
        ledger, memo, size = self.ledger, self._memo, self.batch_size
        ledger.batch_groups += 1
        answers: list[Preference] = []
        for start in range(0, len(misses), size):
            chunk = misses if len(misses) <= size else misses[start : start + size]
            prefs = oracle.compare_batch(chunk) if len(chunk) > 1 else [oracle.compare(chunk[0])]
            ledger.inference_calls += 1
            if memo is not None:
                for req, pref in zip(chunk, prefs):
                    memo[req] = pref
                    memo[(req[1], req[0])] = _SECOND if pref is _FIRST else _FIRST
            answers += prefs
        return answers


DEFAULT_PROMPT_TEMPLATE = (
    "Given a query and two passages, decide which passage is more relevant "
    "to the query.\n"
    "Query: {query}\n"
    "Passage A: {passage_a}\n"
    "Passage B: {passage_b}\n"
    'Answer "Passage A" or "Passage B".'
)


_SLOT = re.compile(r"\{(query|passage_a|passage_b)\}")


@lru_cache(maxsize=16)
def _template_parts(template: str | None) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(texts, slots) of a prompt template, None for DEFAULT_PROMPT_TEMPLATE,
    split once on its placeholders: the prompt is texts[0], then each slot's
    value followed by the next text."""
    parts = _SLOT.split(DEFAULT_PROMPT_TEMPLATE if template is None else template)
    return tuple(parts[0::2]), tuple(parts[1::2])


def build_prp_prompt(
    query: str, a: Candidate, b: Candidate, template: str | None = None
) -> str:
    """Instantiate the pairwise prompt template for one comparison.

    The template is split once on its placeholders {query}, {passage_a} and
    {passage_b}, in any order, any number of times each, and each one is
    replaced by its value verbatim. Nothing else is interpreted, and a value
    is never searched for placeholders, so a query or passage may hold
    braces, or even ``{passage_b}``, and still appears as written.
    ``LlmOracle`` fills the same split with JSON-escaped bytes.
    """
    for cand in (a, b):
        if cand.text is None:
            raise InvalidConfig(f"candidate {cand.doc!r} has no passage text")
    texts, slots = _template_parts(template)
    values = {"query": query, "passage_a": a.text, "passage_b": b.text}
    out = [texts[0]]
    for slot, text in zip(slots, texts[1:]):
        out += (values[slot], text)
    return "".join(out)


_LABEL = re.compile(r"\bpassage ([ab])\b")


def parse_preference_label(completion: str) -> tuple[Preference, bool]:
    """Map a completion to a Preference by its earliest label, ``Passage A``
    or ``Passage B`` as whole words, in any case.

    Returns (preference, parsed). Unparseable completions map to
    (FIRST, False); the caller decides how loudly to complain.
    """
    match = _LABEL.search(completion.lower())
    if match is None:
        return _FIRST, False
    return (_FIRST if match.group(1) == "a" else _SECOND), True


@dataclass(frozen=True, slots=True)
class LlmEndpoint:
    """HTTP text-completion backend configuration. ``_exchange`` holds the
    wire format, behind which a backend with another payload schema is
    adapted. The API key is read from the environment when a connection
    opens, never from config files."""

    url: str
    model: str = "default"
    api_key_env: str = "PRP_SORT_API_KEY"
    timeout_s: float = 30.0
    prompt_template: str | None = None
    retries: int = 1

    def __post_init__(self) -> None:
        # Past TIMEOUT_MAX, or at NaN, socket.settimeout raises.
        if not 0 < self.timeout_s <= threading.TIMEOUT_MAX:
            raise InvalidConfig(
                f"timeout_s must be > 0 and at most {threading.TIMEOUT_MAX}, got {self.timeout_s}"
            )
        if self.retries < 0:
            raise InvalidConfig(f"retries must be >= 0, got {self.retries}")
        _url_parts(self.url)


# Caps on a reply head, as in ``http.client``: a longer line, or more header
# lines, fails the call instead of growing a buffer without bound.
_MAX_LINE = 65536
_MAX_HEADERS = 100
_RECV_SIZE = 8192  # replies are small; each thread's malloc arena holds what one receive asks for
_DEFAULT_PORT = {"http": 80, "https": 443}
_STATUS_LINE = re.compile(rb"HTTP/1\.(\d) (\d{3})(?: .*)?\r?\n")
_CHUNK_SIZE_LINE = re.compile(rb"([0-9a-fA-F]{1,16})[ \t]*(?:;.*)?\r?\n")
_REQUEST_TOKEN = re.compile(r"[!-~]+")  # what a request line and Host may hold


def _url_parts(url: str) -> tuple[urllib.parse.SplitResult, int, str, str]:
    """(split URL, port, host[:port] without credentials, request target) of
    an endpoint URL; a URL that no request can go to is an InvalidConfig."""
    try:
        parts = urllib.parse.urlsplit(url)
        port = _DEFAULT_PORT.get(parts.scheme) if parts.port is None else parts.port
    except ValueError as exc:
        raise InvalidConfig(f"not an http(s) URL: {url!r} ({exc})") from None
    origin = parts.netloc.rpartition("@")[2]
    target = urllib.parse.urlunsplit(("", "", parts.path or "/", parts.query, ""))
    if (
        parts.scheme not in _DEFAULT_PORT
        or not port  # an explicit port 0
        or not parts.hostname
        or not _REQUEST_TOKEN.fullmatch(origin)
        or not _REQUEST_TOKEN.fullmatch(target)
    ):
        raise InvalidConfig(f"not an http(s) URL: {url!r}")
    return parts, port, origin, target


class _HttpError(Exception):
    """A reply that breaks HTTP/1.1, or a proxy URL no request can go to."""


class _Unanswered(ConnectionError):
    """The request could not be sent, or the peer closed the connection
    before a status line."""


class _Connection:
    """One kept-alive HTTP/1.1 connection to an endpoint, reused across calls
    and, in a sweep, across the cells of the one worker that owns it. It
    holds the endpoint, and whoever makes it closes it: a sweep's worker, or
    ``llm_compare_batch`` for its one call. An ``LlmOracle`` only sends over it.

    The socket opens on the first POST and reopens after the peer or an
    error closed it; a kept socket is polled for input before each POST,
    whatever its descriptor's number. Replies are read through one buffer
    kept for the socket's life. Proxies (``HTTP_PROXY``, ``HTTPS_PROXY``,
    ``NO_PROXY``) and the API key come from the environment, read each time
    the socket opens, when the head of every request it carries is rendered:
    an ``http`` URL is sent to the proxy with the absolute URL as the
    target, an ``https`` URL is tunnelled through it with CONNECT.
    """

    def __init__(self, endpoint: LlmEndpoint):
        self.endpoint = endpoint
        self._sock: socket.socket | None = None  # open; carried a reply, if any, that kept it
        self._poll: select.poll | None = None  # polls ``_sock`` for input; made when it opens
        self._buf = bytearray()  # received and not yet read
        self._head = b""  # the request head up to Content-Length's value; made in ``_open``

    def post(self, parts: Sequence[bytes]) -> tuple[int, bytes]:
        """POST the body that ``parts`` join into and read the whole reply,
        so the connection stays usable whatever its status; returns (status,
        body).

        A transport error closes the connection and is retried up to
        endpoint.retries times, each time on a fresh connection. A request
        that could not be sent, or got no status line, on a connection that
        had already carried a reply is sent once more on a fresh one without
        counting as a retry: the server may have closed the idle connection
        just as the request went out.
        """
        retries = self.endpoint.retries
        resend = True
        while True:
            # An idle socket that reads ready was closed by the peer, or holds
            # bytes that no request of ours asked for.
            if self._sock is not None and self._poll.poll(0):  # type: ignore[union-attr]
                self.close()
            reused = self._sock is not None
            try:
                return self._attempt(parts)
            except BaseException as exc:
                self.close()
                if not isinstance(exc, (OSError, _HttpError)):
                    raise
                if reused and resend and isinstance(exc, _Unanswered):
                    resend = False
                elif retries:
                    retries -= 1
                else:
                    raise BackendFailure(f"POST {self.endpoint.url} failed: {exc}") from exc

    def _attempt(self, parts: Sequence[bytes]) -> tuple[int, bytes]:
        """One HTTP exchange: open the socket unless one is kept, send the
        request in one write, read the whole reply; returns (status, body).
        The socket's head, the body's length and ``parts`` are joined once,
        into the request, so the body is never copied on its own. The socket
        is kept only if the reply lets it stay open and ended where its
        framing said."""
        sock = self._sock or self._open()
        length = b"%d\r\n\r\n" % sum(map(len, parts))
        try:
            sock.sendall(b"".join((self._head, length, *parts)))
        except OSError as exc:
            raise _Unanswered(str(exc)) from exc
        status, keep_alive, reply_headers = self._read_head()
        data, keep_alive = self._read_body(status, reply_headers, keep_alive)
        if not keep_alive or self._buf:
            self.close()
        return status, data

    def _open(self) -> socket.socket:
        """Connect to the endpoint or its proxy, keep the socket, render its requests' head."""
        url, port, origin, target = _url_parts(self.endpoint.url)  # checked with the endpoint
        api_key = os.environ.get(self.endpoint.api_key_env, "")
        if api_key and not _REQUEST_TOKEN.fullmatch(api_key):  # it goes into the head as is
            raise InvalidConfig(f"{self.endpoint.api_key_env} must be printable ASCII, no spaces")
        # Loaded here, not at import: select, socket, and urllib.request,
        # which pulls in http.client, email and ssl; a program that opens no
        # connection needs none of them.
        import select
        import socket
        from urllib.request import getproxies, proxy_bypass

        address = (url.hostname, port)
        # getproxies walks the environment; proxy_bypass walks it again, so
        # it runs only when there is a proxy to bypass.
        proxy = getproxies().get(url.scheme)
        if proxy and proxy_bypass(url.hostname):
            proxy = None
        if proxy:
            proxy_url = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            try:
                proxy_port = proxy_url.port
            except ValueError as exc:
                raise _HttpError(f"bad {url.scheme} proxy URL: {exc}") from None
            if not proxy_url.hostname or proxy_port == 0:
                raise _HttpError(f"bad {url.scheme} proxy URL: {proxy!r}")
            address = (proxy_url.hostname, proxy_port or _DEFAULT_PORT[url.scheme])
            if url.scheme == "http":
                target = f"http://{origin}{target}"
        self._head = (
            f"POST {target} HTTP/1.1\r\nHost: {origin}\r\nAccept-Encoding: identity\r\n"
            "Content-Type: application/json\r\n"
            + (f"Authorization: Bearer {api_key}\r\n" if api_key else "")
            + "Content-Length: "
        ).encode("ascii")
        sock = self._sock = socket.create_connection(address, timeout=self.endpoint.timeout_s)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if url.scheme == "https":
            if proxy:
                host = f"[{url.hostname}]" if ":" in url.hostname else url.hostname
                self._tunnel(sock, f"{host}:{port}")
            import ssl

            # Certificates and the host name are verified; SNI is sent.
            context = ssl.create_default_context()
            context.set_alpn_protocols(["http/1.1"])
            sock = self._sock = context.wrap_socket(sock, server_hostname=url.hostname)
        # poll, unlike select(), takes a descriptor of any number, 1024 and up too.
        self._poll = select.poll()
        self._poll.register(sock, select.POLLIN)
        return sock

    def _tunnel(self, sock: socket.socket, origin: str) -> None:
        """Ask the proxy at the other end of ``sock`` for a tunnel to ``origin``."""
        sock.sendall(f"CONNECT {origin} HTTP/1.1\r\nHost: {origin}\r\n\r\n".encode("ascii"))
        status = self._read_head()[0]
        if status != 200:
            raise OSError(f"Tunnel connection failed: {status}")

    def _read_head(self) -> tuple[int, bool, dict[bytes, bytes]]:
        """Read a final status line and its header lines, skipping any 1xx
        reply; returns (status, keep-alive, headers by lower-case name)."""
        while True:
            try:
                line = self._line()
            except ConnectionResetError as exc:
                raise _Unanswered(str(exc)) from exc
            if not line:
                raise _Unanswered("Remote end closed connection without response")
            match = _STATUS_LINE.fullmatch(line)
            if match is None:
                raise _HttpError(f"bad status line {line[:80]!r}")
            headers = self._read_headers()
            status = int(match[2])
            if status >= 200:
                tokens = {t.strip() for t in headers.get(b"connection", b"").lower().split(b",")}
                if match[1] == b"0":  # HTTP/1.0 closes unless asked to keep alive
                    return status, b"keep-alive" in tokens, headers
                return status, b"close" not in tokens, headers

    def _read_headers(self) -> dict[bytes, bytes]:
        """Header (or trailer) lines up to the blank line that ends them."""
        headers = {}
        for _ in range(_MAX_HEADERS + 1):
            line = self._line()
            if line in (b"\r\n", b"\n"):
                return headers
            if not line:
                raise _HttpError("connection closed inside a reply head")
            name, _, value = line.partition(b":")
            headers[name.strip().lower()] = value.strip()
        raise _HttpError(f"reply has more than {_MAX_HEADERS} header lines")

    def _read_body(
        self, status: int, headers: Mapping[bytes, bytes], keep_alive: bool
    ) -> tuple[bytes, bool]:
        """The reply body, framed by ``chunked``, ``Content-Length`` or the
        close of the connection; returns (body, keep-alive)."""
        if status in (204, 304):
            return b"", keep_alive
        if headers.get(b"transfer-encoding", b"").lower() == b"chunked":
            parts = []
            while True:
                line = self._line()
                match = _CHUNK_SIZE_LINE.fullmatch(line)
                if match is None:
                    raise _HttpError(f"bad chunk size line {line[:80]!r}")
                size = int(match[1], 16)
                if not size:
                    break
                parts.append(self._read(size))
                if self._line() not in (b"\r\n", b"\n"):
                    raise _HttpError("chunk data not followed by a line end")
            self._read_headers()  # trailers
            return b"".join(parts), keep_alive
        length = headers.get(b"content-length")
        if length is not None:
            if not length.isdigit():
                raise _HttpError(f"bad Content-Length {length[:80]!r}")
            return self._read(int(length)), keep_alive
        while self._fill():
            pass
        data = bytes(self._buf)
        self._buf.clear()
        return data, False

    def _fill(self) -> bool:
        """Receive more bytes into the buffer; False at the end of stream."""
        data = self._sock.recv(_RECV_SIZE)  # type: ignore[union-attr]
        self._buf += data
        return bool(data)

    def _line(self) -> bytes:
        """The next line with its line end; b"" at a clean end of stream."""
        buf = self._buf
        start = 0
        while (end := buf.find(b"\n", start, _MAX_LINE)) < 0:
            if len(buf) >= _MAX_LINE:
                raise _HttpError(f"reply line longer than {_MAX_LINE} bytes")
            start = len(buf)
            if not self._fill():
                if buf:
                    raise _HttpError("connection closed inside a reply line")
                return b""
        line = bytes(buf[: end + 1])
        del buf[: end + 1]
        return line

    def _read(self, size: int) -> bytes:
        buf = self._buf
        while len(buf) < size:
            if not self._fill():
                raise _HttpError(f"reply body ended after {len(buf)} of {size} bytes")
        data = bytes(buf[:size])
        del buf[:size]
        return data

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None
        self._buf.clear()


def llm_compare_batch(endpoint: LlmEndpoint, prompts: Sequence[str]) -> list[Preference]:
    """Resolve a batch of rendered prompts as one logical inference call, on a
    connection opened for this call and closed after it. ``_exchange``
    gets the prompts' JSON items, as one piece.

    Transport errors are retried up to endpoint.retries times before raising
    BackendFailure; HTTP status or payload problems fail immediately.
    Completions without a recognizable label fall back to FIRST with a
    ParseFallbackWarning, which keeps long sweeps running.
    """
    items = json.dumps(list(prompts))[1:-1].encode("ascii")
    with closing(_Connection(endpoint)) as connection:
        return _exchange(connection, [items], len(prompts))


def _exchange(connection: _Connection, prompts: Sequence[bytes], count: int) -> list[Preference]:
    """POST ``count`` prompts and parse the completions into preferences, in
    order: the one HTTP exchange of every inference call, and the one place
    that holds the wire format. ``prompts`` join into the prompts' JSON
    items, ``", "`` between two; the body wraps them in ``{"model": ...,
    "prompts": [`` ... ``]}``, as ``json.dumps`` writes it, and the reply is
    ``{"completions": [...]}`` of equal length and order."""
    endpoint = connection.endpoint
    model = json.dumps(endpoint.model).encode("ascii")
    status, data = connection.post([b'{"model": ' + model + b', "prompts": [', *prompts, b"]}"])
    if status != 200:
        raise BackendFailure(f"POST {endpoint.url} returned HTTP {status}")
    try:
        completions = json.loads(data)["completions"]
    except (ValueError, KeyError, TypeError) as exc:
        raise BackendFailure(f"malformed response from {endpoint.url}: {exc!r}") from exc
    if not isinstance(completions, list) or len(completions) != count:
        raise BackendFailure(
            f"expected {count} completions from {endpoint.url}, "
            f"got {len(completions) if isinstance(completions, list) else completions!r}"
        )
    preferences = []
    for completion in completions:
        pref, parsed = parse_preference_label(str(completion))
        if not parsed:
            warnings.warn(
                f"completion {str(completion)[:80]!r} has no passage label; "
                "falling back to First",
                ParseFallbackWarning,
                stacklevel=3,
            )
        preferences.append(pref)
    return preferences


def _json_chars(text: str) -> bytes:
    """``text`` as it stands between the quotes of a JSON string that
    ``json.dumps`` writes; escaping is per character, so the escapes of two
    texts join into the escape of the two joined."""
    return json.dumps(text)[1:-1].encode("ascii")


class LlmOracle(Oracle):
    """Pairwise-prompting judge over an HTTP completion backend.

    Each comparison issues a single-order prompt that names the request's
    first document as Passage A; both orders are never queried for one
    comparison, matching one-inference-per-comparison accounting. Every call
    goes over ``connection``, and the oracle reads the prompt template from
    its endpoint (``_exchange`` reads the model). Whoever opened the
    connection closes it: in a sweep, the worker that hands it to each cell
    it runs. A query or candidate without text is rejected when the oracle
    is built.

    The prompt template is split once, when the oracle is built, as
    ``build_prp_prompt`` splits it, and its text, the query and every
    passage are JSON-escaped then, once each. A call hands those bytes to
    ``_exchange`` as the pieces of the prompts' JSON items, which equal
    ``json.dumps`` of the prompts ``build_prp_prompt`` renders, without
    building any prompt or joining the body on its own.
    Rendering each prompt with ``build_prp_prompt`` and posting their
    ``json.dumps`` instead cost the benchmark's ``llm-batched`` workload
    4.7-5.2% of its cells per second and 13% more peak RSS, in 5 of 5
    alternated pairs on 2 vCPUs.
    """

    def __init__(self, connection: _Connection, query: str, candidates: Iterable[Candidate]):
        if query is None:
            raise InvalidConfig("the query has no text")
        texts, slots = _template_parts(connection.endpoint.prompt_template)
        # The query is the same in every prompt, so it joins the text around
        # it; a prompt is then chunks[0], and per passage slot the passage
        # (0 for A, 1 for B) followed by the next chunk. A prompt's quotes
        # are in its first and last chunk.
        chunks = [b'"' + _json_chars(texts[0])]
        sides = []
        for slot, text in zip(slots, texts[1:]):
            if slot == "query":
                chunks[-1] += _json_chars(query)
            else:
                sides.append(int(slot == "passage_b"))
                chunks.append(b"")
            chunks[-1] += _json_chars(text)
        chunks[-1] += b'"'
        self._lead = chunks[0]
        self._next_lead = b", " + chunks[0]  # every prompt after the first
        self._layout = tuple(zip(sides, chunks[1:]))
        self._passages: dict[DocId, bytes] = {}
        for cand in candidates:
            if cand.text is None:
                raise InvalidConfig(f"candidate {cand.doc!r} has no passage text")
            self._passages[cand.doc] = _json_chars(cand.text)
        self._connection = connection

    def compare(self, req: tuple[DocId, DocId]) -> Preference:
        return self.compare_batch([req])[0]

    def compare_batch(self, reqs: Sequence[tuple[DocId, DocId]]) -> list[Preference]:
        passages, layout, next_lead = self._passages, self._layout, self._next_lead
        parts = []
        lead = self._lead
        for first, second in reqs:
            try:
                pair = (passages[first], passages[second])
            except KeyError as exc:
                raise InvalidConfig(f"no passage for document {exc.args[0]!r}") from None
            parts.append(lead)
            for side, chunk in layout:
                parts += (pair[side], chunk)
            lead = next_lead
        return _exchange(self._connection, parts, len(reqs))
