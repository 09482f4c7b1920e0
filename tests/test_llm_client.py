import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
import requests

from prp_sort import (
    BackendFailure,
    BatchExecutor,
    Candidate,
    ComparisonRequest,
    LlmEndpoint,
    ParseFallbackWarning,
    Preference,
    llm_compare_batch,
)
from prp_sort.errors import MissingText
from prp_sort.oracles import LlmOracle


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length)) if length else {}
        self.server.requests.append(
            {"payload": payload, "authorization": self.headers.get("Authorization")}
        )
        if self.server.responses:
            status, body = self.server.responses.pop(0)
        else:
            status, body = 200, None
        if body is None:
            body = {"completions": ["Passage A"] * len(payload.get("prompts", []))}
        if callable(body):
            body = body(payload)
        data = body if isinstance(body, bytes) else json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def server():
    httpd = HTTPServer(("127.0.0.1", 0), _Handler)
    httpd.requests = []
    httpd.responses = []
    thread = threading.Thread(
        target=httpd.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    yield httpd
    httpd.shutdown()
    thread.join(timeout=5)


def endpoint_for(server, **kwargs):
    url = f"http://127.0.0.1:{server.server_address[1]}/complete"
    return LlmEndpoint(url=url, model="test-model", retries=0, timeout_s=5.0, **kwargs)


CANDIDATES = [
    Candidate("dA", text="alpha passage"),
    Candidate("dB", text="beta passage"),
    Candidate("dC", text="gamma passage"),
]


class TestLlmCompareBatch:
    def test_labels_map_in_order(self, server):
        server.responses.append((200, {"completions": ["Passage B", "passage a wins"]}))
        prefs = llm_compare_batch(endpoint_for(server), ["p1", "p2"])
        assert prefs == [Preference.SECOND, Preference.FIRST]
        assert server.requests[0]["payload"]["model"] == "test-model"
        assert server.requests[0]["payload"]["prompts"] == ["p1", "p2"]

    def test_unparseable_completion_falls_back_with_warning(self, server):
        server.responses.append((200, {"completions": ["neither of them"]}))
        with pytest.warns(ParseFallbackWarning):
            prefs = llm_compare_batch(endpoint_for(server), ["p1"])
        assert prefs == [Preference.FIRST]

    def test_http_error_raises_backend_failure(self, server):
        server.responses.append((500, {"error": "boom"}))
        with pytest.raises(BackendFailure, match="HTTP 500"):
            llm_compare_batch(endpoint_for(server), ["p1"])

    def test_malformed_json_raises_backend_failure(self, server):
        server.responses.append((200, b"this is not json"))
        with pytest.raises(BackendFailure, match="malformed"):
            llm_compare_batch(endpoint_for(server), ["p1"])

    def test_wrong_completion_count_raises_backend_failure(self, server):
        server.responses.append((200, {"completions": ["Passage A"]}))
        with pytest.raises(BackendFailure, match="expected 2 completions"):
            llm_compare_batch(endpoint_for(server), ["p1", "p2"])

    def test_unreachable_endpoint_raises_backend_failure(self):
        endpoint = LlmEndpoint(url="http://127.0.0.1:9/complete", retries=0, timeout_s=0.5)
        with pytest.raises(BackendFailure):
            llm_compare_batch(endpoint, ["p1"])

    def test_transport_failure_is_retried_once(self, server, monkeypatch):
        real_post = requests.post
        failures = {"left": 1}

        def flaky_post(*args, **kwargs):
            if failures["left"]:
                failures["left"] -= 1
                raise requests.ConnectionError("simulated drop")
            return real_post(*args, **kwargs)

        monkeypatch.setattr(requests, "post", flaky_post)
        endpoint = endpoint_for(server)
        endpoint = LlmEndpoint(url=endpoint.url, model="test-model", retries=1, timeout_s=5.0)
        prefs = llm_compare_batch(endpoint, ["p1"])
        assert prefs == [Preference.FIRST]
        assert failures["left"] == 0

    def test_api_key_header_from_environment(self, server, monkeypatch):
        monkeypatch.setenv("PRP_SORT_API_KEY", "sekret")
        llm_compare_batch(endpoint_for(server), ["p1"])
        assert server.requests[0]["authorization"] == "Bearer sekret"

    def test_no_auth_header_without_key(self, server, monkeypatch):
        monkeypatch.delenv("PRP_SORT_API_KEY", raising=False)
        llm_compare_batch(endpoint_for(server), ["p1"])
        assert server.requests[0]["authorization"] is None


class TestLlmOracle:
    def test_batched_execution_posts_once_per_chunk(self, server):
        def by_position(payload):
            # First passage (alphabetically earlier text) always wins.
            completions = []
            for prompt in payload["prompts"]:
                a = prompt.split("Passage A: ")[1].split("\n")[0]
                b = prompt.split("Passage B: ")[1].split("\n")[0]
                completions.append("Passage A" if a < b else "Passage B")
            return {"completions": completions}

        server.responses.extend([(200, by_position), (200, by_position)])
        oracle = LlmOracle(endpoint_for(server), "which passage?", CANDIDATES)
        executor = BatchExecutor(batch_size=2)
        group = [
            ComparisonRequest("dA", "dB"),
            ComparisonRequest("dC", "dB"),
            ComparisonRequest("dA", "dC"),
        ]
        prefs = executor.submit_group(oracle, group)
        assert prefs == [Preference.FIRST, Preference.SECOND, Preference.FIRST]
        assert len(server.requests) == 2  # ceil(3 / 2) posts
        assert [len(r["payload"]["prompts"]) for r in server.requests] == [2, 1]
        assert executor.ledger.comparisons == 3
        assert executor.ledger.inference_calls == 2
        assert executor.ledger.batch_groups == 1

    def test_cached_misses_share_posts_and_repeats_post_nothing(self, server):
        docs = [Candidate(f"d{i}", text=f"passage {i}") for i in range(5)]
        oracle = LlmOracle(endpoint_for(server), "which passage?", docs)
        executor = BatchExecutor(batch_size=4, use_cache=True)
        group = [ComparisonRequest(f"d{i}", "d4") for i in range(4)]
        assert executor.submit_group(oracle, group) == [Preference.FIRST] * 4
        assert len(server.requests) == 1
        assert len(server.requests[0]["payload"]["prompts"]) == 4
        assert executor.ledger.inference_calls == 1
        # Same pairs, reversed: every answer comes from the memo, re-oriented.
        reversed_group = [ComparisonRequest("d4", f"d{i}") for i in range(4)]
        assert executor.submit_group(oracle, reversed_group) == [Preference.SECOND] * 4
        assert len(server.requests) == 1
        assert executor.ledger.cache_hits == 4
        assert executor.ledger.inference_calls == 1

    def test_prompt_carries_query_and_both_passages(self, server):
        oracle = LlmOracle(endpoint_for(server), "my query", CANDIDATES)
        oracle.compare(ComparisonRequest("dA", "dB"))
        prompt = server.requests[0]["payload"]["prompts"][0]
        assert "my query" in prompt
        assert "alpha passage" in prompt
        assert "beta passage" in prompt

    def test_candidates_without_text_are_rejected_upfront(self, server):
        with pytest.raises(MissingText):
            LlmOracle(endpoint_for(server), "q", [Candidate("dX")])
