"""Local stub of a pairwise-prompting LLM backend, plus the judge it serves.

Run as a program it serves the wire format of ``prp_sort.LlmEndpoint``
(POST ``{"model", "prompts"}`` -> ``{"completions"}``) on 127.0.0.1 over
HTTP/1.1 with one thread per connection, prints ``PORT <n>`` once it
listens, and serves until its standard input closes:

    python3 benchmark/stub.py --fixed-ms 2 --per-prompt-ms 0.02

Each POST sleeps ``fixed-ms + per-prompt-ms * prompts`` and answers every
prompt with ``judge``. ``GET /stats`` returns the counters of all POSTs so
far: requests, prompts, request body bytes in, response bytes out,
connections that carried at least one POST, and summed service time.

Imported as a module it exposes ``judge`` and the passage format, so the
benchmark can run an in-process reference with the very same answers, and
``StubClient`` to read a running stub's counters.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import threading
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

# Near ties confuse the judge: a pair whose hidden scores differ by d flips
# with probability 0.5 * (1 - d / CONFUSION_WIDTH) when d < CONFUSION_WIDTH.
# With scores spread evenly over (0, 1] that is ~9-10% of all unordered
# pairs. Flipping a uniform 10% instead lets one bad answer drop the best
# passage out of a heap, and NDCG@10 then swings with the seed far more than
# any bound could allow at the sweep sizes a run can afford.
CONFUSION_WIDTH = 0.2

SCORE_OPEN = "[s="
QUERY_LINE = "Query: "
PASSAGE_A_LINE = "Passage A: "
PASSAGE_B_LINE = "Passage B: "


def hidden_score(passage: str) -> float:
    """The ground-truth score a passage carries as ``[s=<float>]``."""
    start = passage.index(SCORE_OPEN) + len(SCORE_OPEN)
    return float(passage[start : passage.index("]", start)])


def confused(query: str, pair: tuple[str, str], gap: float) -> bool:
    """Whether the judge inverts the unordered ``pair`` of passages whose
    hidden scores differ by ``gap``."""
    if gap >= CONFUSION_WIDTH:
        return False
    digest = hashlib.blake2b("\x1f".join((query, *pair)).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2**64 < 0.5 * (1.0 - gap / CONFUSION_WIDTH)


def judge(query: str, passage_a: str, passage_b: str, extra_flips=frozenset()) -> bool:
    """True when passage A wins.

    A pure function of its arguments: the higher hidden score wins (ties go
    to the smaller text), inverted on a fixed ~10% of unordered pairs (near
    ties, see CONFUSION_WIDTH), so a pair always gets the same answer in
    either order. ``extra_flips`` holds further (lo, hi) passage pairs to
    invert; only the negative self-test of the benchmark's output check
    passes it.
    """
    sa, sb = hidden_score(passage_a), hidden_score(passage_b)
    a_wins = sa > sb or (sa == sb and passage_a < passage_b)
    pair = (passage_a, passage_b) if passage_a < passage_b else (passage_b, passage_a)
    if confused(query, pair, abs(sa - sb)):
        a_wins = not a_wins
    if pair in extra_flips:
        a_wins = not a_wins
    return a_wins


def _prompt_fields(prompt: str) -> tuple[str, str, str]:
    found = {}
    for line in prompt.split("\n"):
        for marker in (QUERY_LINE, PASSAGE_A_LINE, PASSAGE_B_LINE):
            if line.startswith(marker) and marker not in found:
                found[marker] = line[len(marker) :]
    return found[QUERY_LINE], found[PASSAGE_A_LINE], found[PASSAGE_B_LINE]


def complete(prompt: str) -> str:
    query, passage_a, passage_b = _prompt_fields(prompt)
    return "Passage A" if judge(query, passage_a, passage_b) else "Passage B"


class Stats:
    FIELDS = ("requests", "prompts", "bytes_in", "bytes_out", "connections", "service_s")

    def __init__(self):
        self.lock = threading.Lock()
        self.values = dict.fromkeys(self.FIELDS, 0)

    def add(self, **deltas) -> None:
        with self.lock:
            for name, delta in deltas.items():
                self.values[name] += delta

    def snapshot(self) -> dict:
        with self.lock:
            return dict(self.values)


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        self.carried_post = False

    def _response(self, status: int, body: bytes) -> bytes:
        head = (
            f"HTTP/1.1 {status} {self.responses[status][0]}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        return head + body

    def do_GET(self):
        if self.path == "/stats":
            response = self._response(200, json.dumps(self.server.stats.snapshot()).encode())
        else:
            response = self._response(404, b"{}")
        self.wfile.write(response)

    def do_POST(self):
        started = time.perf_counter()
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length)
        try:
            prompts = json.loads(raw)["prompts"]
            completions = [complete(p) for p in prompts]
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            response = self._response(400, json.dumps({"error": repr(exc)}).encode())
            prompts = []
        else:
            delay_s = self.server.fixed_s + self.server.per_prompt_s * len(prompts)
            if delay_s > 0:
                time.sleep(delay_s)
            response = self._response(200, json.dumps({"completions": completions}).encode())
        new_connection = not self.carried_post
        self.carried_post = True
        # Counted before the reply leaves, so a client that reads /stats
        # after its last reply sees every request it made.
        self.server.stats.add(
            requests=1,
            prompts=len(prompts),
            bytes_in=len(raw),
            bytes_out=len(response),
            connections=int(new_connection),
            service_s=time.perf_counter() - started,
        )
        # Header and body leave in one write: split writes meet delayed ACK
        # on a reused connection and cost tens of milliseconds per call.
        self.wfile.write(response)

    def log_message(self, *args):
        pass


class StubClient:
    """Address and counters of a running stub backend."""

    def __init__(self, port: int):
        self.base = f"http://127.0.0.1:{port}"
        self.url = f"{self.base}/complete"

    def stats(self) -> dict:
        with urllib.request.urlopen(f"{self.base}/stats", timeout=10) as response:
            return json.loads(response.read())


def stats_delta(before: dict, after: dict) -> dict:
    return {name: after[name] - before[name] for name in after}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--fixed-ms", type=float, required=True)
    parser.add_argument("--per-prompt-ms", type=float, required=True)
    args = parser.parse_args(argv)
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    server.stats = Stats()
    server.fixed_s = args.fixed_ms / 1000.0
    server.per_prompt_s = args.per_prompt_ms / 1000.0
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        sys.stdin.read()
    finally:
        server.shutdown()
        thread.join()
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
