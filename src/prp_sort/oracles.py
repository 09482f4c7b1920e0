"""Comparison oracles and the batching executor.

Oracles answer ordered pairwise relevance questions. The executor is the one
place where groups of independent questions are turned into counted inference
calls, and the one place that caches answers: a group of g requests with h
cache hits costs ceil((g - h) / batch_size) calls, each a chunk of misses
asked through ``compare`` if it holds one request, else ``compare_batch``.
Grouping never changes answers, only the ledger; a cache hit repeats the
pair's first answer.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import urllib.parse
import urllib.request
import warnings
from dataclasses import dataclass
from random import Random
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    BackendFailure,
    IdenticalPair,
    InvalidConfig,
    MissingText,
    ParseFallbackWarning,
    UnknownDoc,
)
from .model import Candidate, CostLedger, DocId, Preference
from .seeding import stable_seed


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
    answer ``compare`` the same way, as ``LlmOracle`` does.
    """

    def compare(self, req: ComparisonRequest) -> Preference:
        raise NotImplementedError

    def compare_batch(self, reqs: Sequence[ComparisonRequest]) -> list[Preference]:
        """Resolve a chunk of independent requests in one logical call.

        The default answers them one by one; backends with real batch
        support override this.
        """
        return [self.compare(r) for r in reqs]

    def close(self) -> None:
        """Release what the oracle holds open; a no-op unless overridden."""


class ScoreOracle(Oracle):
    """Ground-truth judge over a score map.

    The larger score wins; exact ties go to the lexicographically smaller
    id, so the induced order is strict and total.
    """

    def __init__(self, scores: Mapping[DocId, float]):
        self._scores = dict(scores)

    def compare(self, req: ComparisonRequest) -> Preference:
        a, b = req
        if a == b:
            raise IdenticalPair(f"cannot compare document {a!r} with itself")
        scores = self._scores
        try:
            sa = scores[a]
            sb = scores[b]
        except KeyError as exc:
            raise UnknownDoc(f"no score for document {exc.args[0]!r}") from None
        if sa > sb:
            return Preference.FIRST
        if sb > sa:
            return Preference.SECOND
        return Preference.FIRST if a < b else Preference.SECOND


class NoisyOracle(Oracle):
    """Wraps a base oracle and flips its answer with a fixed probability.

    The flip decision is keyed on (seed, unordered pair), not on the query
    event, so the same unordered pair always answers the same way within a
    run even without a cache. flip_probability 0 reproduces the base oracle
    exactly; 1 inverts it everywhere.
    """

    def __init__(self, base: Oracle, flip_probability: float, seed: int):
        if not 0.0 <= flip_probability <= 1.0:
            raise InvalidConfig(f"flip_probability must be in [0, 1], got {flip_probability}")
        self.base = base
        self.flip_probability = flip_probability
        self.seed = seed

    def compare(self, req: ComparisonRequest) -> Preference:
        answer = self.base.compare(req)
        if self.flip_probability == 0.0:
            return answer
        a, b = req
        lo, hi = (a, b) if a < b else (b, a)
        draw = Random(stable_seed("flip", self.seed, lo, hi)).random()
        if draw < self.flip_probability:
            return answer.flipped()
        return answer


class BatchExecutor:
    """Submits independent comparison groups and accounts their cost.

    One executor serves exactly one algorithm run. With ``use_cache`` it
    keeps a run-scoped memo of every answered pair, stored in both
    orientations, so (a, b) and (b, a) share one inference and a repeat is
    answered for free; a group's misses are its size less its cache hits.
    """

    def __init__(self, batch_size: int = 1, use_cache: bool = False):
        if batch_size < 1:
            raise InvalidConfig(f"batch_size must be >= 1, got {batch_size}")
        self.batch_size = batch_size
        self.use_cache = use_cache
        self.ledger = CostLedger()
        # A reversed key is a plain (second, first) tuple: it hashes and
        # compares equal to the ComparisonRequest and is cheaper to build.
        self._memo: dict[tuple[DocId, DocId], Preference] | None = {} if use_cache else None

    def submit_group(
        self, oracle: Oracle, group: Sequence[ComparisonRequest]
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
        if len(group) == 1:  # most groups (heapsort, bubblesort): no per-group lists
            req = group[0]
            if memo is not None:
                answer = memo.get(req)
                if answer is not None:
                    ledger.cache_hits += 1
                    return [answer]
            ledger.batch_groups += 1
            answer = oracle.compare(req)
            ledger.inference_calls += 1
            if memo is not None:
                memo[req] = answer
                memo[(req[1], req[0])] = answer.flipped()
            return [answer]
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

    def _resolve(self, oracle: Oracle, misses: Sequence[ComparisonRequest]) -> list[Preference]:
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
                    memo[(req[1], req[0])] = pref.flipped()
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


def build_prp_prompt(
    query: str, a: Candidate, b: Candidate, template: str | None = None
) -> str:
    """Instantiate the pairwise prompt template for one comparison.

    The placeholders {query}, {passage_a} and {passage_b} are replaced
    verbatim and nothing else is interpreted, so passages may contain braces.
    """
    for cand in (a, b):
        if cand.text is None:
            raise MissingText(f"candidate {cand.doc!r} has no passage text")
    tpl = DEFAULT_PROMPT_TEMPLATE if template is None else template
    return (
        tpl.replace("{query}", query)
        .replace("{passage_a}", a.text or "")
        .replace("{passage_b}", b.text or "")
    )


_LABEL_A = "passage a"
_LABEL_B = "passage b"


def parse_preference_label(completion: str) -> tuple[Preference, bool]:
    """Map a completion to a Preference by its earliest label token.

    Returns (preference, parsed). Unparseable completions map to
    (FIRST, False); the caller decides how loudly to complain.
    """
    lowered = completion.lower()
    pos_a = lowered.find(_LABEL_A)
    pos_b = lowered.find(_LABEL_B)
    if pos_a >= 0 and (pos_b < 0 or pos_a <= pos_b):
        return Preference.FIRST, True
    if pos_b >= 0:
        return Preference.SECOND, True
    return Preference.FIRST, False


@dataclass(frozen=True, slots=True)
class LlmEndpoint:
    """HTTP text-completion backend configuration.

    The wire format is deliberately minimal: POST a JSON body
    ``{"model": ..., "prompts": [...]}`` and read ``{"completions": [...]}``
    of equal length and order. Backends with a different payload schema are
    adapted behind this shape. The API key is read from the environment,
    never from config files.
    """

    url: str
    model: str = "default"
    api_key_env: str = "PRP_SORT_API_KEY"
    timeout_s: float = 30.0
    prompt_template: str | None = None
    retries: int = 1


class _Connection:
    """One kept-alive HTTP/1.1 connection to an endpoint, reused across calls.

    The socket opens on the first POST and reopens after the peer or an
    error closed it. Proxies come from the environment (``HTTP_PROXY``,
    ``HTTPS_PROXY``, ``NO_PROXY``), read each time the socket opens: an
    ``http`` URL is sent to the proxy with the absolute URL as the target,
    an ``https`` URL is tunnelled through it with CONNECT.
    """

    def __init__(self, endpoint: LlmEndpoint):
        self.endpoint = endpoint
        self._http: http.client.HTTPConnection | None = None  # open; carried a reply
        self._target = ""

    def _open(self) -> http.client.HTTPConnection:
        url = urllib.parse.urlsplit(self.endpoint.url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise http.client.InvalidURL(f"not an http(s) URL: {self.endpoint.url!r}")
        address = url.netloc.rpartition("@")[2]
        self._target = urllib.parse.urlunsplit(("", "", url.path or "/", url.query, ""))
        proxy = None
        if not urllib.request.proxy_bypass(url.hostname):
            proxy = urllib.request.getproxies().get(url.scheme)
        if proxy:
            proxy_url = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            address, origin = proxy_url.netloc.rpartition("@")[2], address
            if url.scheme == "http":
                self._target = f"http://{origin}{self._target}"
        if url.scheme == "http":
            return http.client.HTTPConnection(address, timeout=self.endpoint.timeout_s)
        conn = http.client.HTTPSConnection(address, timeout=self.endpoint.timeout_s)
        if proxy:
            conn.set_tunnel(origin)
        return conn

    def post(self, body: bytes, headers: Mapping[str, str]) -> tuple[int, bytes]:
        """POST ``body`` and read the whole reply, so the connection stays
        usable whatever its status; returns (status, body).

        A transport error closes the connection and is retried up to
        endpoint.retries times, each time on a fresh connection. A request
        that could not be sent, or got no status line, on a connection that
        had already carried a reply is sent once more on a fresh one without
        counting as a retry: the server may have closed the idle connection
        just as the request went out.
        """
        retries = max(0, self.endpoint.retries)
        resend = True
        while True:
            conn, self._http = self._http, None
            # An idle socket that reads ready was closed by the peer; a reply
            # that asked to close the connection has closed it already.
            if conn is not None and (conn.sock is None or select.select([conn.sock], [], [], 0)[0]):
                conn.close()
                conn = None
            reused = conn is not None
            sent = answered = False
            try:
                conn = conn or self._open()
                conn.request("POST", self._target, body, headers)
                sent = True
                response = conn.getresponse()
                answered = True
                data = response.read()
            except BaseException as exc:
                if conn is not None:
                    conn.close()
                if not isinstance(exc, (OSError, http.client.HTTPException)):
                    raise
                no_status_line = not answered and isinstance(exc, ConnectionResetError)
                if reused and resend and (not sent or no_status_line):
                    resend = False
                elif retries:
                    retries -= 1
                else:
                    raise BackendFailure(f"POST {self.endpoint.url} failed: {exc}") from exc
            else:
                self._http = conn
                return response.status, data

    def close(self) -> None:
        if self._http is not None:
            self._http.close()
            self._http = None


def llm_compare_batch(
    endpoint: LlmEndpoint, prompts: Sequence[str], connection: _Connection | None = None
) -> list[Preference]:
    """Resolve a batch of rendered prompts as one logical inference call.

    The POST goes over ``connection`` when one is given (``LlmOracle`` passes
    its own); otherwise a connection is opened for this call and closed after
    it. Transport errors are retried up to endpoint.retries times before
    raising BackendFailure; HTTP status or payload problems fail immediately.
    Completions without a recognizable label fall back to FIRST with a
    ParseFallbackWarning, which keeps long sweeps running.
    """
    headers = {"Content-Type": "application/json"}
    api_key = os.environ.get(endpoint.api_key_env, "")
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    body = json.dumps({"model": endpoint.model, "prompts": list(prompts)}).encode("utf-8")
    if connection is None:
        connection = _Connection(endpoint)
        try:
            status, data = connection.post(body, headers)
        finally:
            connection.close()
    else:
        status, data = connection.post(body, headers)
    if status != 200:
        raise BackendFailure(f"POST {endpoint.url} returned HTTP {status}")
    try:
        completions = json.loads(data)["completions"]
    except (ValueError, KeyError, TypeError) as exc:
        raise BackendFailure(f"malformed response from {endpoint.url}: {exc!r}") from exc
    if not isinstance(completions, list) or len(completions) != len(prompts):
        raise BackendFailure(
            f"expected {len(prompts)} completions from {endpoint.url}, "
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
                stacklevel=2,
            )
        preferences.append(pref)
    return preferences


class LlmOracle(Oracle):
    """Pairwise-prompting judge over an HTTP completion backend.

    Each comparison issues a single-order prompt that names the request's
    first document as Passage A; both orders are never queried for one
    comparison, matching one-inference-per-comparison accounting. All calls
    share one kept-alive connection, which ``close()`` releases.
    """

    def __init__(self, endpoint: LlmEndpoint, query: str, candidates: Iterable[Candidate]):
        self.endpoint = endpoint
        self.query = query
        self._by_doc: dict[DocId, Candidate] = {}
        for cand in candidates:
            if cand.text is None:
                raise MissingText(f"candidate {cand.doc!r} has no passage text")
            self._by_doc[cand.doc] = cand
        self._connection = _Connection(endpoint)

    def compare(self, req: ComparisonRequest) -> Preference:
        return self.compare_batch([req])[0]

    def compare_batch(self, reqs: Sequence[ComparisonRequest]) -> list[Preference]:
        prompts = []
        for req in reqs:
            try:
                a = self._by_doc[req.first]
                b = self._by_doc[req.second]
            except KeyError as exc:
                raise UnknownDoc(f"no passage for document {exc.args[0]!r}") from None
            prompts.append(build_prp_prompt(self.query, a, b, self.endpoint.prompt_template))
        return llm_compare_batch(self.endpoint, prompts, self._connection)

    def close(self) -> None:
        self._connection.close()
