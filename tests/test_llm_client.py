import json
import os
import resource
import signal
import socket
import sys
import threading
import time
import urllib.request
from contextlib import closing, contextmanager
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prp_sort import (
    Algorithm,
    AlgoConfig,
    BackendFailure,
    BatchExecutor,
    Candidate,
    ComparisonRequest,
    InvalidConfig,
    LlmEndpoint,
    ParseFallbackWarning,
    Preference,
    build_prp_prompt,
    emit_report,
    llm_compare_batch,
    run_experiment,
)
from prp_sort import experiment
from prp_sort.experiment import ExperimentConfig, FileSource, OracleSpec, SyntheticSpec
from prp_sort.oracles import LlmOracle, _Connection
from conftest import TLS_CERT


def endpoint_for(server, **kwargs):
    return LlmEndpoint(url=server.url, model="test-model", retries=0, timeout_s=5.0, **kwargs)


@contextmanager
def llm_oracle(endpoint, query, candidates):
    """An ``LlmOracle`` on a connection to ``endpoint`` that is closed when
    the block ends."""
    with closing(_Connection(endpoint)) as connection:
        yield LlmOracle(connection, query, candidates)


def wait_for(predicate, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.01)
    return predicate()


def earlier_text_wins(payload):
    """A reply body that prefers the alphabetically earlier passage text."""
    completions = []
    for prompt in payload["prompts"]:
        a = prompt.split("Passage A: ")[1].split("\n")[0]
        b = prompt.split("Passage B: ")[1].split("\n")[0]
        completions.append("Passage A" if a < b else "Passage B")
    return {"completions": completions}


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

    @pytest.mark.parametrize("completions", [1, 3], ids=["fewer", "more"])
    def test_wrong_completion_count_raises_backend_failure(self, server, completions):
        server.responses.append((200, {"completions": ["Passage A"] * completions}))
        with pytest.raises(BackendFailure, match="expected 2 completions"):
            llm_compare_batch(endpoint_for(server), ["p1", "p2"])

    def test_unreachable_endpoint_raises_backend_failure(self):
        endpoint = LlmEndpoint(url="http://127.0.0.1:9/complete", retries=0, timeout_s=0.5)
        with pytest.raises(BackendFailure):
            llm_compare_batch(endpoint, ["p1"])

    @pytest.mark.parametrize(
        "url",
        [
            "ftp://127.0.0.1:9/complete",
            "http:///complete",
            "http://127.0.0.1:99999/complete",
            "http://127.0.0.1:port/complete",
            "http://127.0.0.1:0/complete",
            "https://h:0/x",
            "http://[::1/complete",
            "http://127.0.0.1/com plete",
        ],
    )
    def test_url_no_request_can_go_to_is_rejected_when_built(self, url):
        with pytest.raises(InvalidConfig, match="not an http"):
            LlmEndpoint(url=url, retries=0)

    def test_transport_failure_is_retried_once(self, server):
        server.responses.append("drop")
        endpoint = replace(endpoint_for(server), retries=1)
        assert llm_compare_batch(endpoint, ["p1"]) == [Preference.FIRST]
        assert server.connections == 2
        server.responses.append("drop")
        with pytest.raises(BackendFailure, match="failed"):
            llm_compare_batch(endpoint_for(server), ["p1"])
        assert server.connections == 3

    def test_api_key_header_from_environment(self, server, monkeypatch):
        monkeypatch.setenv("PRP_SORT_API_KEY", "sekret")
        llm_compare_batch(endpoint_for(server), ["p1"])
        assert server.requests[0]["authorization"] == "Bearer sekret"
        assert server.requests[0]["content_type"] == "application/json"

    def test_no_auth_header_without_key(self, server, monkeypatch):
        monkeypatch.delenv("PRP_SORT_API_KEY", raising=False)
        llm_compare_batch(endpoint_for(server), ["p1"])
        assert server.requests[0]["authorization"] is None

    def test_a_key_changed_after_a_connection_opened_is_sent_from_the_next_one_on(
        self, server, monkeypatch
    ):
        # The key is read when a connection opens, into the head of every
        # request it carries.
        monkeypatch.setenv("PRP_SORT_API_KEY", "one")
        with llm_oracle(endpoint_for(server), "q", CANDIDATES) as oracle:
            oracle.compare(ComparisonRequest("dA", "dB"))
            monkeypatch.setenv("PRP_SORT_API_KEY", "two")
            oracle.compare(ComparisonRequest("dA", "dB"))
            oracle._connection.close()
            oracle.compare(ComparisonRequest("dA", "dB"))
            monkeypatch.delenv("PRP_SORT_API_KEY")
            oracle.compare(ComparisonRequest("dA", "dB"))
        sent = [request["authorization"] for request in server.requests]
        assert sent == ["Bearer one", "Bearer one", "Bearer two", "Bearer two"]
        assert server.connections == 2

    def test_api_key_that_would_break_the_request_head_is_rejected(self, server, monkeypatch):
        monkeypatch.setenv("PRP_SORT_API_KEY", "sekret\r\nX-Injected: 1")
        with pytest.raises(InvalidConfig, match="PRP_SORT_API_KEY"):
            llm_compare_batch(endpoint_for(server), ["p1"])
        assert server.requests == []
        assert server.connections == 0


class TestLlmOracle:
    def test_batched_execution_posts_once_per_chunk(self, server):
        server.responses.extend([(200, earlier_text_wins), (200, earlier_text_wins)])
        executor = BatchExecutor(batch_size=2)
        group = [
            ComparisonRequest("dA", "dB"),
            ComparisonRequest("dC", "dB"),
            ComparisonRequest("dA", "dC"),
        ]
        with llm_oracle(endpoint_for(server), "which passage?", CANDIDATES) as oracle:
            prefs = executor.submit_group(oracle, group)
        assert prefs == [Preference.FIRST, Preference.SECOND, Preference.FIRST]
        assert len(server.requests) == 2  # ceil(3 / 2) posts
        assert [len(r["payload"]["prompts"]) for r in server.requests] == [2, 1]
        assert executor.ledger.comparisons == 3
        assert executor.ledger.inference_calls == 2
        assert executor.ledger.batch_groups == 1

    def test_cached_misses_share_posts_and_repeats_post_nothing(self, server):
        docs = [Candidate(f"d{i}", text=f"passage {i}") for i in range(5)]
        executor = BatchExecutor(batch_size=4, use_cache=True)
        group = [ComparisonRequest(f"d{i}", "d4") for i in range(4)]
        reversed_group = [ComparisonRequest("d4", f"d{i}") for i in range(4)]
        with llm_oracle(endpoint_for(server), "which passage?", docs) as oracle:
            assert executor.submit_group(oracle, group) == [Preference.FIRST] * 4
            assert len(server.requests) == 1
            assert len(server.requests[0]["payload"]["prompts"]) == 4
            assert executor.ledger.inference_calls == 1
            # Same pairs, reversed: every answer comes from the memo, re-oriented.
            assert executor.submit_group(oracle, reversed_group) == [Preference.SECOND] * 4
        assert len(server.requests) == 1
        assert executor.ledger.cache_hits == 4
        assert executor.ledger.inference_calls == 1

    @pytest.mark.parametrize("use_cache", [False, True])
    def test_singleton_group_is_one_post_of_one_prompt(self, server, use_cache):
        executor = BatchExecutor(use_cache=use_cache)
        with llm_oracle(endpoint_for(server), "q", CANDIDATES) as oracle:
            answers = executor.submit_group(oracle, (ComparisonRequest("dA", "dB"),))
        assert answers == [Preference.FIRST]
        assert [len(r["payload"]["prompts"]) for r in server.requests] == [1]
        assert executor.ledger.inference_calls == 1

    def test_prompt_carries_query_and_both_passages(self, server):
        with llm_oracle(endpoint_for(server), "my query", CANDIDATES) as oracle:
            oracle.compare(ComparisonRequest("dA", "dB"))
        prompt = server.requests[0]["payload"]["prompts"][0]
        assert "my query" in prompt
        assert "alpha passage" in prompt
        assert "beta passage" in prompt

    def test_candidates_without_text_are_rejected_upfront(self, server):
        candidates = [*CANDIDATES, Candidate("dX")]
        with pytest.raises(InvalidConfig, match="candidate 'dX' has no passage text"):
            LlmOracle(_Connection(endpoint_for(server)), "q", candidates)
        assert server.connections == 0

    def test_query_without_text_is_rejected_when_built(self, server):
        with pytest.raises(InvalidConfig, match="query has no text"):
            LlmOracle(_Connection(endpoint_for(server)), None, CANDIDATES)
        assert server.connections == 0

    def test_unknown_doc_is_rejected_before_any_post(self, server):
        with llm_oracle(endpoint_for(server), "q", CANDIDATES) as oracle:
            with pytest.raises(InvalidConfig, match="no passage for document 'dZ'"):
                oracle.compare(ComparisonRequest("dA", "dZ"))
        assert server.requests == []


# Texts with what JSON escapes (quotes, backslashes, control characters),
# braces, placeholders and characters beyond ASCII and beyond the BMP.
SPECIALS = ['"', "\\", "\n", "\t", "\x00", "\x1f", "%", "{", "}", "\u00e9", "\u2603", "\U0001f600"]
PLACEHOLDERS = ["{query}", "{passage_a}", "{passage_b}"]
texts = st.lists(
    st.one_of(st.text(max_size=6), st.sampled_from(SPECIALS + PLACEHOLDERS)), max_size=8
).map("".join)
templates = st.one_of(
    st.none(),
    st.lists(st.one_of(texts, st.sampled_from(PLACEHOLDERS)), max_size=8).map("".join),
)


class OneReplySocket:
    """A connected socket stand-in for ``socket.create_connection`` to
    return: records each write and answers with ``reply``. Its descriptor,
    which the connection registers for polling, is one end of a socket pair
    that ``close`` closes."""

    def __init__(self, reply):
        self.writes = []
        self.reply = reply
        self.pair = socket.socketpair()

    def setsockopt(self, *args):
        pass

    def fileno(self):
        return self.pair[0].fileno()

    def sendall(self, data):
        self.writes.append(bytes(data))

    def recv(self, size):
        data, self.reply = self.reply[:size], self.reply[size:]
        return data

    def close(self):
        for end in self.pair:
            end.close()


def request_lines(body, key):
    """The lines of the head of a request to ``http://backend.invalid/complete``
    with ``body``, sent without a proxy and with ``key`` as the API key."""
    auth = [b"Authorization: Bearer " + key.encode()] if key else []
    return [
        b"POST /complete HTTP/1.1",
        b"Host: backend.invalid",
        b"Accept-Encoding: identity",
        b"Content-Type: application/json",
        *auth,
        content_length(body),
    ]


class TestRequestBody:
    """A call's request leaves in one write, whose head is the one its
    connection rendered when it opened and whose body, joined from escaped
    bytes, is the body of the rendered prompts."""

    @given(
        model=st.text(max_size=8),
        template=templates,
        query=texts,
        passages=st.lists(texts, min_size=2, max_size=5),
        picks=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=6),
        key=st.one_of(st.just(""), st.text(st.characters(min_codepoint=0x21, max_codepoint=0x7E))),
    )
    @settings(max_examples=300, deadline=None)
    def test_body_is_the_json_of_the_rendered_prompts(
        self, model, template, query, passages, picks, key
    ):
        candidates = [Candidate(f"d{i}", text=text) for i, text in enumerate(passages)]
        reqs = [
            ComparisonRequest(f"d{a % len(passages)}", f"d{b % len(passages)}") for a, b in picks
        ]
        endpoint = LlmEndpoint(
            url="http://backend.invalid/complete", model=model, prompt_template=template
        )
        answer = json.dumps({"completions": ["Passage B"] * len(reqs)}).encode()
        socks = [
            OneReplySocket(reply(b"HTTP/1.1 200 OK", content_length(answer), body=answer))
            for _ in range(2)
        ]
        unused = list(socks)
        by_doc = {cand.doc: cand for cand in candidates}
        prompts = [build_prp_prompt(query, by_doc[a], by_doc[b], template) for a, b in reqs]
        # The oracle's connection opens on the first socket, and
        # llm_compare_batch's on the second.
        with (
            mock.patch.dict(os.environ, {"PRP_SORT_API_KEY": key}),
            mock.patch("urllib.request.getproxies", dict),
            mock.patch("socket.create_connection", lambda *args, **kwargs: unused.pop(0)),
        ):
            try:
                with closing(_Connection(endpoint)) as connection:
                    oracle = LlmOracle(connection, query, candidates)
                    assert oracle.compare_batch(reqs) == [Preference.SECOND] * len(reqs)
                assert llm_compare_batch(endpoint, prompts) == [Preference.SECOND] * len(reqs)
            finally:
                for sock in socks:
                    sock.close()
        assert unused == []
        for sock in socks:
            [request] = sock.writes
            head, _, body = request.partition(b"\r\n\r\n")
            assert b"\r\n" + content_length(body) + b"\r\n" in head + b"\r\n"
            assert head.split(b"\r\n") == request_lines(body, key)
            assert body == json.dumps({"model": model, "prompts": prompts}).encode()


def clear_proxies(monkeypatch):
    for name in ("http_proxy", "https_proxy", "no_proxy", "all_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)


def refuse_connections(monkeypatch):
    """Make ``socket.create_connection`` refuse every connect; returns the
    list of addresses it was given."""
    addresses = []

    def create_connection(address, *args, **kwargs):
        addresses.append(address)
        raise ConnectionRefusedError("not connecting in a test")

    monkeypatch.setattr(socket, "create_connection", create_connection)
    return addresses


class TestTransport:
    """One kept-alive connection per oracle, and the rules for reusing it."""

    def ask(self, oracle, calls=1):
        return [oracle.compare(ComparisonRequest("dA", "dB")) for _ in range(calls)]

    def test_calls_of_one_oracle_share_one_connection(self, server):
        with llm_oracle(endpoint_for(server), "q", CANDIDATES) as oracle:
            assert self.ask(oracle, 20) == [Preference.FIRST] * 20
        assert len(server.requests) == 20
        assert server.connections == 1
        assert wait_for(lambda: server.closed == 1)

    def test_idle_connection_closed_by_the_server_costs_no_failure(self, server):
        server.close_after_reply = True
        with llm_oracle(endpoint_for(server), "q", CANDIDATES) as oracle:
            assert self.ask(oracle, 5) == [Preference.FIRST] * 5
        assert len(server.requests) == 5
        assert server.connections == 5

    def test_idle_connection_that_reads_ready_is_not_reused(self, server):
        # Some servers answer an idle timeout with an unasked 408 before they
        # close; a request sent on that socket would read the 408 as its reply.
        server.goodbye = b"HTTP/1.1 408 Request Timeout\r\nContent-Length: 0\r\n\r\n"
        with llm_oracle(endpoint_for(server), "q", CANDIDATES) as oracle:
            for calls in (1, 2, 3):
                assert self.ask(oracle) == [Preference.FIRST]
                assert wait_for(lambda: server.goodbyes == calls)
        assert len(server.requests) == 3
        assert server.connections == 3

    def test_connection_on_a_descriptor_of_1024_or_more_is_reused(self, server):
        # select.select rejects a descriptor at or past FD_SETSIZE (1024).
        soft = resource.getrlimit(resource.RLIMIT_NOFILE)[0]
        if soft != resource.RLIM_INFINITY and soft < 1100:
            pytest.skip(f"the soft limit on open descriptors is {soft}")
        spare = [os.open(os.devnull, os.O_RDONLY)]
        try:
            while spare[-1] < 1024:  # every lower descriptor is now taken
                spare.append(os.dup(spare[0]))
            with llm_oracle(endpoint_for(server), "q", CANDIDATES) as oracle:
                assert self.ask(oracle, 2) == [Preference.FIRST] * 2
                assert oracle._connection._sock.fileno() >= 1024
        finally:
            for fd in spare:
                os.close(fd)
        assert server.connections == 1

    @pytest.mark.parametrize("drop", ["drop", "reset"])
    def test_request_dropped_on_a_reused_connection_is_resent_once(self, server, drop):
        server.responses.extend([(200, None), drop])
        with llm_oracle(endpoint_for(server), "q", CANDIDATES) as oracle:
            assert self.ask(oracle, 2) == [Preference.FIRST] * 2
            assert len(server.requests) == 3
            assert server.connections == 2
            # The resend is on a fresh connection; a drop there is a failure
            # at retries=0.
            server.responses.extend([drop, drop])
            with pytest.raises(BackendFailure, match="failed"):
                self.ask(oracle)
        assert server.connections == 3

    def test_a_send_that_fails_on_a_reused_connection_is_sent_once_more(
        self, server, monkeypatch
    ):
        sendall = socket.socket.sendall
        failures = []  # one entry for each of the oracle's next sends that fails

        with llm_oracle(endpoint_for(server), "q", CANDIDATES) as oracle:

            def failing_sendall(sock, data, *args):
                if failures and sock is oracle._connection._sock:
                    failures.pop()
                    raise BrokenPipeError(32, "Broken pipe")
                return sendall(sock, data, *args)

            monkeypatch.setattr(socket.socket, "sendall", failing_sendall)
            assert self.ask(oracle) == [Preference.FIRST]
            # The kept socket's send fails: sent again on a fresh connection,
            # which is no retry, so the call succeeds at retries=0.
            failures.append(1)
            assert self.ask(oracle) == [Preference.FIRST]
            assert (len(server.requests), server.connections) == (2, 2)
            # On a fresh connection the same failure is a BackendFailure.
            oracle._connection.close()
            failures.append(1)
            with pytest.raises(BackendFailure, match="Broken pipe"):
                self.ask(oracle)
        assert failures == []
        assert wait_for(lambda: server.connections == 3)
        assert len(server.requests) == 2

    @pytest.mark.parametrize(
        "response, error",
        [
            ((500, {"error": "boom"}), "HTTP 500"),
            # No body follows a 204 or a 304, whatever its headers say; reading
            # to the close instead would wait out timeout_s.
            (b"HTTP/1.1 204 No Content\r\n\r\n", "HTTP 204"),
            (b"HTTP/1.1 304 Not Modified\r\n\r\n", "HTTP 304"),
        ],
        ids=["500", "204", "304"],
    )
    def test_call_after_an_http_error_reuses_the_connection(self, server, response, error):
        server.responses.append(response)
        with llm_oracle(endpoint_for(server), "q", CANDIDATES) as oracle:
            with pytest.raises(BackendFailure, match=error):
                self.ask(oracle)
            assert self.ask(oracle) == [Preference.FIRST]
        assert server.connections == 1

    def test_http_proxy_gets_the_absolute_url(self, server, monkeypatch):
        clear_proxies(monkeypatch)
        monkeypatch.delenv("PRP_SORT_API_KEY", raising=False)
        monkeypatch.setenv("HTTP_PROXY", server.url.replace("http://", "http://puser:ppw@", 1))
        endpoint = LlmEndpoint(url="http://user:pw@backend.invalid/complete?v=1", retries=0)
        assert llm_compare_batch(endpoint, ["p1"]) == [Preference.FIRST]
        request = server.requests[0]
        assert request["target"] == "http://backend.invalid/complete?v=1"
        assert request["host"] == "backend.invalid"
        assert request["authorization"] is None
        assert request["proxy_authorization"] is None

    def test_no_proxy_bypasses_the_proxy(self, server, monkeypatch):
        # The endpoint is local, so that bypassing needs no name lookup.
        clear_proxies(monkeypatch)
        monkeypatch.setenv("HTTP_PROXY", "http://127.0.0.1:9")  # nothing listens there
        monkeypatch.setenv("NO_PROXY", "localhost,127.0.0.1")
        assert llm_compare_batch(endpoint_for(server), ["p1"]) == [Preference.FIRST]
        assert server.requests[0]["target"] == "/complete"

    @pytest.mark.parametrize(
        "proxy", ["http://127.0.0.1:port", "http://:3128"], ids=["bad-port", "no-host"]
    )
    def test_malformed_proxy_url_fails_the_call(self, monkeypatch, proxy):
        # A proxy URL comes from the environment, so it is checked when a
        # connection opens.
        clear_proxies(monkeypatch)
        monkeypatch.setenv("HTTP_PROXY", proxy)
        endpoint = LlmEndpoint(url="http://backend.invalid/complete", retries=0)
        with pytest.raises(BackendFailure, match="bad http proxy URL"):
            llm_compare_batch(endpoint, ["p1"])

    @pytest.mark.parametrize(
        "proxy, address",
        [
            ("http://127.0.0.1:0", None),
            ("http://127.0.0.1:3128", ("127.0.0.1", 3128)),
            ("http://127.0.0.1", ("127.0.0.1", 80)),
        ],
        ids=["port-0", "port-3128", "no-port"],
    )
    def test_proxy_port_0_fails_the_call_without_connecting(self, monkeypatch, proxy, address):
        clear_proxies(monkeypatch)
        monkeypatch.setenv("HTTP_PROXY", proxy)
        addresses = refuse_connections(monkeypatch)
        endpoint = LlmEndpoint(url="http://backend.invalid:8080/complete", retries=0)
        error = "bad http proxy URL" if address is None else "not connecting"
        with pytest.raises(BackendFailure, match=error):
            llm_compare_batch(endpoint, ["p1"])
        assert addresses == ([] if address is None else [address])

    @pytest.mark.parametrize("proxy", [None, "http://127.0.0.1:3128"], ids=["none", "set"])
    def test_bypass_is_looked_up_only_for_a_proxy(self, monkeypatch, proxy):
        clear_proxies(monkeypatch)
        if proxy is not None:
            monkeypatch.setenv("HTTP_PROXY", proxy)
        lookups = []

        def proxy_bypass(host):
            lookups.append(host)
            return False

        monkeypatch.setattr(urllib.request, "proxy_bypass", proxy_bypass)
        refuse_connections(monkeypatch)
        endpoint = LlmEndpoint(url="http://backend.invalid/complete", retries=0)
        with pytest.raises(BackendFailure, match="not connecting"):
            llm_compare_batch(endpoint, ["p1"])
        assert lookups == ([] if proxy is None else ["backend.invalid"])

    def test_https_is_tunnelled_through_the_proxy(self, server, monkeypatch):
        clear_proxies(monkeypatch)
        monkeypatch.setenv("HTTPS_PROXY", server.url.rsplit("/", 1)[0])
        endpoint = LlmEndpoint(url="https://backend.invalid/complete", retries=0)
        with pytest.raises(BackendFailure, match="502"):
            llm_compare_batch(endpoint, ["p1"])
        assert server.requests == [{"method": "CONNECT", "target": "backend.invalid:443"}]

    @pytest.mark.parametrize("server", ["tls"], indirect=True)
    def test_https_rejects_an_untrusted_certificate(self, server, monkeypatch):
        clear_proxies(monkeypatch)
        with pytest.raises(BackendFailure, match="CERTIFICATE_VERIFY_FAILED"):
            llm_compare_batch(endpoint_for(server), ["p1"])
        assert server.requests == []

    @pytest.mark.parametrize("server", ["tls"], indirect=True)
    def test_https_answers_over_a_trusted_certificate_and_sends_sni(self, server, monkeypatch):
        clear_proxies(monkeypatch)
        monkeypatch.setenv("SSL_CERT_FILE", str(TLS_CERT))
        assert llm_compare_batch(endpoint_for(server), ["p1"]) == [Preference.FIRST]
        assert server.sni_names == ["localhost"]

    @pytest.mark.parametrize("server", ["tls"], indirect=True)
    def test_https_checks_the_host_name(self, server, monkeypatch):
        # The certificate names localhost, not the address it is reached at.
        clear_proxies(monkeypatch)
        monkeypatch.setenv("SSL_CERT_FILE", str(TLS_CERT))
        endpoint = LlmEndpoint(url=f"https://127.0.0.1:{server.server_address[1]}/", retries=0)
        with pytest.raises(BackendFailure, match=r"not valid for '127\.0\.0\.1'"):
            llm_compare_batch(endpoint, ["p1"])
        assert server.requests == []

    def test_run_experiment_keeps_a_connection_per_cell_in_flight_and_closes_them(
        self, server, tmp_path
    ):
        server.delay_s = 0.05  # every cell starts before the first one ends
        files = {
            "run.txt": "q1 Q0 dA 1 2.0 r\nq1 Q0 dB 2 1.0 r\nq2 Q0 dA 1 2.0 r\nq2 Q0 dC 2 1.0 r\n",
            "qrels.txt": "q1 0 dA 1\nq2 0 dC 1\n",
            "queries.tsv": "q1\tfirst query\nq2\tsecond query\n",
            "passages.tsv": "dA\ttext a\ndB\ttext b\ndC\ttext c\n",
        }
        for name, text in files.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        config = ExperimentConfig(
            dataset=FileSource(
                run_path=str(tmp_path / "run.txt"),
                qrels_path=str(tmp_path / "qrels.txt"),
                queries_path=str(tmp_path / "queries.tsv"),
                passages_path=str(tmp_path / "passages.tsv"),
            ),
            algorithms=[AlgoConfig(Algorithm.HEAPSORT, k=1), AlgoConfig(Algorithm.BUBBLESORT, k=1)],
            oracle=OracleSpec(kind="llm", endpoint=endpoint_for(server)),
            k=1,
        )
        report = run_experiment(config)
        assert [row.status for row in report.rows] == ["ok"] * 4
        assert len(server.requests) == sum(row.inference_calls for row in report.rows)
        assert server.connections == min(4, experiment.LLM_CONCURRENCY)
        assert wait_for(lambda: server.closed == server.connections)


ANSWER_B = b'{"completions": ["Passage B"]}'


def reply(*head_lines, body=ANSWER_B):
    """A verbatim reply: status line, header lines, blank line, body."""
    return b"".join(line + b"\r\n" for line in head_lines) + b"\r\n" + body


def content_length(body=ANSWER_B):
    return b"Content-Length: %d" % len(body)


CHUNKED = b"Transfer-Encoding: chunked"


class TestReplyFraming:
    """Replies framed by chunks, by their length or by the close, and the caps
    on a reply head."""

    def ask(self, oracle):
        return oracle.compare(ComparisonRequest("dA", "dB"))

    def test_chunked_body_parses_and_keeps_the_connection(self, server):
        chunks = b"5;ext=1\r\n" + ANSWER_B[:5] + b"\r\n"
        chunks += b"%x\r\n" % len(ANSWER_B[5:]) + ANSWER_B[5:] + b"\r\n"
        chunks += b"0\r\nX-Trailer: t\r\n\r\n"
        server.responses.append(reply(b"HTTP/1.1 200 OK", CHUNKED, body=chunks))
        with llm_oracle(endpoint_for(server), "q", CANDIDATES) as oracle:
            assert self.ask(oracle) == Preference.SECOND
            assert self.ask(oracle) == Preference.FIRST
        assert server.connections == 1

    def test_close_delimited_body_parses_and_the_next_call_reconnects(self, server):
        server.close_after_reply = True
        server.responses.append(reply(b"HTTP/1.1 200 OK", b"Content-Type: application/json"))
        with llm_oracle(endpoint_for(server), "q", CANDIDATES) as oracle:
            assert self.ask(oracle) == Preference.SECOND
            assert self.ask(oracle) == Preference.FIRST
        assert len(server.requests) == 2
        assert server.connections == 2

    @pytest.mark.parametrize(
        "head",
        [
            (b"HTTP/1.1 200 OK", b"Connection: close"),
            (b"HTTP/1.0 200 OK",),  # HTTP/1.0 closes unless it asks to keep alive
        ],
        ids=["connection-close", "http-1.0"],
    )
    def test_connection_close_reply_is_not_reused_and_costs_no_retry(self, server, head):
        # The server keeps the connection open; only the reply head says to close.
        server.responses.append(reply(*head, content_length()))
        with llm_oracle(endpoint_for(server), "q", CANDIDATES) as oracle:
            assert self.ask(oracle) == Preference.SECOND
            assert wait_for(lambda: server.closed == 1)
            assert self.ask(oracle) == Preference.FIRST
        assert len(server.requests) == 2
        assert server.connections == 2

    def test_bytes_past_the_end_of_a_reply_are_not_read_as_the_next_reply(self, server):
        server.responses.append(
            reply(b"HTTP/1.1 200 OK", content_length())
            + b"HTTP/1.1 408 Request Timeout\r\nContent-Length: 0\r\n\r\n"
        )
        with llm_oracle(endpoint_for(server), "q", CANDIDATES) as oracle:
            assert self.ask(oracle) == Preference.SECOND
            assert self.ask(oracle) == Preference.FIRST
        assert server.connections == 2

    def test_body_cut_short_by_a_close_is_retried_then_fails(self, server):
        server.close_after_reply = True
        short = reply(b"HTTP/1.1 200 OK", content_length(), body=ANSWER_B[:7])
        server.responses.extend([short, short])
        endpoint = replace(endpoint_for(server), retries=1)
        with pytest.raises(BackendFailure, match="body ended after 7 of"):
            llm_compare_batch(endpoint, ["p1"])
        assert len(server.requests) == 2
        assert server.connections == 2

    @pytest.mark.parametrize(
        "response, error",
        [
            (reply(b"HTTP/1.1 2OO OK", content_length()), "bad status line"),
            (
                reply(b"HTTP/1.1 200 OK", b"X-Long: " + b"a" * 65536, content_length()),
                "longer than",
            ),
            (reply(b"HTTP/1.1 200 OK", *[b"X-Many: 1"] * 100, content_length()), "more than 100"),
            (reply(b"HTTP/1.1 200 OK", CHUNKED, body=b"5x\r\n"), "bad chunk size line"),
            (
                reply(b"HTTP/1.1 200 OK", CHUNKED, body=b"2\r\nabc\r\n0\r\n\r\n"),
                "chunk data not followed by a line end",
            ),
            (reply(b"HTTP/1.1 200 OK", b"Content-Length: 3x"), "bad Content-Length"),
        ],
        ids=[
            "bad-status-line",
            "long-header-line",
            "101-header-lines",
            "bad-chunk-size-line",
            "chunk-without-line-end",
            "non-numeric-content-length",
        ],
    )
    def test_malformed_reply_is_a_backend_failure(self, server, response, error):
        server.responses.append(response)
        with pytest.raises(BackendFailure, match=error):
            llm_compare_batch(endpoint_for(server), ["p1"])

    @pytest.mark.parametrize(
        "response, error",
        [
            (b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n", "closed inside a reply head"),
            (b"HTTP/1.1 200 OK\r\nContent-Len", "closed inside a reply line"),
        ],
        ids=["inside-head", "inside-line"],
    )
    def test_reply_cut_off_by_a_close_is_a_backend_failure(self, server, response, error):
        server.close_after_reply = True
        server.responses.append(response)
        with pytest.raises(BackendFailure, match=error):
            llm_compare_batch(endpoint_for(server), ["p1"])

    def test_100_header_lines_parse(self, server):
        server.responses.append(reply(b"HTTP/1.1 200 OK", *[b"X-Many: 1"] * 99, content_length()))
        assert llm_compare_batch(endpoint_for(server), ["p1"]) == [Preference.SECOND]


def query_text(qid):
    return f"topic {qid}"


def pool_config(server, tmp_path, queries, n, algorithms):
    """An llm sweep over ``queries`` generated queries of ``n`` passages each,
    at the k of the ``algorithms``."""
    run, qrels, texts, passages = [], [], [], []
    for q in range(queries):
        qid = f"q{q}"
        texts.append(f"{qid}\t{query_text(qid)}\n")
        for d in range(n):
            doc = f"{qid}d{d}"
            run.append(f"{qid} Q0 {doc} {d + 1} {n - d}.0 r\n")
            qrels.append(f"{qid} 0 {doc} {(d * 7 + q) % 3}\n")
            passages.append(f"{doc}\tpassage {(d * 5 + q * 3) % n:02d} of {qid}\n")
    files = {"run.txt": run, "qrels.txt": qrels, "queries.tsv": texts, "passages.tsv": passages}
    for name, lines in files.items():
        (tmp_path / name).write_text("".join(lines), encoding="utf-8")
    return ExperimentConfig(
        dataset=FileSource(
            run_path=str(tmp_path / "run.txt"),
            qrels_path=str(tmp_path / "qrels.txt"),
            queries_path=str(tmp_path / "queries.tsv"),
            passages_path=str(tmp_path / "passages.tsv"),
        ),
        algorithms=algorithms,
        oracle=OracleSpec(kind="llm", endpoint=endpoint_for(server)),
        k=algorithms[0].k,
    )


def asks_about(payload, qid):
    return f"Query: {query_text(qid)}\n" in payload["prompts"][0]


def score_config(kind="score"):
    """A sweep of one heapsort entry over six synthetic queries."""
    return ExperimentConfig(
        dataset=SyntheticSpec(num_queries=6, n=8),
        algorithms=[AlgoConfig(Algorithm.HEAPSORT, k=3)],
        oracle=OracleSpec(kind=kind, flip_probability=0.1),
        k=3,
    )


@pytest.fixture
def ctrl_c():
    """A function that sends Ctrl-C to the main thread, as a terminal does.

    A shell starts a background job with SIGINT ignored; Ctrl-C from a
    terminal raises KeyboardInterrupt, so the fixture installs that handler.
    """
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    yield lambda: signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
    signal.signal(signal.SIGINT, previous)


class TestCellPool:
    """``run_experiment`` runs every sweep on the cell pool: llm cells
    LLM_CONCURRENCY at a time, score and noisy cells on one worker."""

    def test_pooled_sweep_equals_the_serial_one(self, server, tmp_path, monkeypatch):
        server.reply_for = lambda payload: (200, earlier_text_wins)
        algorithms = [
            AlgoConfig(Algorithm.HEAPSORT, k=3),
            AlgoConfig(Algorithm.BUBBLESORT, k=3, use_cache=True),
            AlgoConfig(Algorithm.QUICKSORT, k=3, batch_size=4),
        ]
        config = pool_config(server, tmp_path, queries=5, n=7, algorithms=algorithms)
        pooled = experiment.LLM_CONCURRENCY
        assert pooled > 1
        rows, outputs = {}, {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # many thread switches inside every cell
        try:
            for workers in (pooled, 1):
                monkeypatch.setattr(experiment, "LLM_CONCURRENCY", workers)
                report = run_experiment(config)
                rows[workers] = report.rows
                for out_format in ("csv", "jsonl"):
                    path = tmp_path / f"report-{workers}.{out_format}"
                    emit_report(report, out_format, str(path))
                    outputs[workers, out_format] = path.read_bytes()
        finally:
            sys.setswitchinterval(interval)
        assert [row.status for row in rows[pooled]] == ["ok"] * 15
        assert rows[pooled] == rows[1]
        assert [(row.algorithm, row.query_id) for row in rows[pooled]] == [
            (algo.label(), f"q{q}") for algo in algorithms for q in range(5)
        ]
        for out_format in ("csv", "jsonl"):
            assert outputs[pooled, out_format] == outputs[1, out_format]

    def test_a_full_pool_of_cells_in_flight_each_on_its_own_connection(self, server, tmp_path):
        server.delay_s = 0.05
        cells = experiment.LLM_CONCURRENCY + 2
        config = pool_config(
            server, tmp_path, queries=cells, n=3, algorithms=[AlgoConfig(Algorithm.HEAPSORT, k=1)]
        )
        report = run_experiment(config)
        assert [row.status for row in report.rows] == ["ok"] * cells
        assert server.peak_in_flight == experiment.LLM_CONCURRENCY
        assert len(server.requests) == sum(row.inference_calls for row in report.rows)
        # The two cells after the first full pool reuse connections.
        assert server.connections == experiment.LLM_CONCURRENCY
        assert wait_for(lambda: server.closed == server.connections)

    def test_connections_the_server_closes_after_each_reply_cost_no_cell(
        self, server, tmp_path
    ):
        server.close_after_reply = True
        server.delay_s = 0.01
        cells = experiment.LLM_CONCURRENCY + 2
        algorithms = [AlgoConfig(Algorithm.HEAPSORT, k=2)]
        config = pool_config(server, tmp_path, queries=cells, n=5, algorithms=algorithms)
        report = run_experiment(config)
        assert [row.status for row in report.rows] == ["ok"] * cells
        assert len(server.requests) == sum(row.inference_calls for row in report.rows)
        assert server.connections == len(server.requests)
        assert wait_for(lambda: server.closed == server.connections)

    def test_a_reset_connection_fails_only_its_cell_and_is_reopened_for_the_next(
        self, server, tmp_path
    ):
        server.delay_s = 0.02  # every cell starts before the first one ends
        server.responses.append("reset")  # to the first request, at retries=0
        pool = experiment.LLM_CONCURRENCY
        cells = pool + 2
        algorithms = [AlgoConfig(Algorithm.HEAPSORT, k=1)]
        config = pool_config(server, tmp_path, queries=cells, n=3, algorithms=algorithms)
        report = run_experiment(config)
        assert sorted(row.status for row in report.rows) == ["failed"] + ["ok"] * (cells - 1)
        # The failed cell ends first, and its worker runs the next cell over
        # its connection, which opens a fresh socket.
        assert server.connections == pool + 1
        assert wait_for(lambda: server.closed == server.connections)

    def test_backend_failure_fails_only_its_own_cells(self, server, tmp_path):
        server.delay_s = 0.02  # every cell starts before the first one ends
        server.reply_for = lambda payload: (
            (500, {"error": "boom"}) if asks_about(payload, "q2") else (200, earlier_text_wins)
        )
        algorithms = [AlgoConfig(Algorithm.HEAPSORT, k=3), AlgoConfig(Algorithm.BUBBLESORT, k=3)]
        config = pool_config(server, tmp_path, queries=6, n=5, algorithms=algorithms)
        report = run_experiment(config)
        statuses = {(row.algorithm, row.query_id): row.status for row in report.rows}
        assert statuses == {
            (algo.label(), f"q{q}"): "failed" if q == 2 else "ok"
            for algo in algorithms
            for q in range(6)
        }
        assert server.connections == min(12, experiment.LLM_CONCURRENCY)
        assert wait_for(lambda: server.closed == server.connections)

    def run_failing_first_cell(self, server, tmp_path, monkeypatch, fail, events):
        """Run a sweep of LLM_CONCURRENCY + 5 cells in which the first cell
        calls ``fail`` after its algorithm, once a full pool of cells has
        started, while the other cells that started keep running a while.
        Every cell logs (event, query id) pairs to ``events``."""
        real_run_algorithm = experiment.run_algorithm
        pool = experiment.LLM_CONCURRENCY

        def run_algorithm(docs, cell, oracle):
            qid = docs[0].partition("d")[0]  # document "q0d3" is one of query "q0"'s
            events.append(("start", qid))
            result = real_run_algorithm(docs, cell, oracle)
            if qid == "q0":
                # A fast first cell could end before the other workers start.
                assert wait_for(lambda: sum(kind == "start" for kind, _ in events) == pool)
                events.append(("fail", qid))
                fail()
                time.sleep(0.3)  # unless fail() raised, the longest-running cell
            else:
                time.sleep(0.2)  # still running, connection open, when q0 fails
            events.append(("end", qid))
            return result

        monkeypatch.setattr(experiment, "run_algorithm", run_algorithm)
        config = pool_config(
            server,
            tmp_path,
            queries=pool + 5,
            n=4,
            algorithms=[AlgoConfig(Algorithm.HEAPSORT, k=2)],
        )
        run_experiment(config)

    def check_stopped(self, server, events, raised):
        failed = events.index(("fail", "q0"))
        started = [query for kind, query in events if kind == "start"]
        ended = [query for kind, query in events if kind == "end"]
        assert all(kind != "start" for kind, _ in events[failed:])
        assert set(started) <= {f"q{q}" for q in range(experiment.LLM_CONCURRENCY)}
        # Every cell that started and did not raise ran to its end before the
        # sweep stopped.
        assert sorted(ended) == sorted(set(started) - raised)
        assert server.connections == len(started)
        assert wait_for(lambda: server.closed == server.connections)

    def test_other_error_stops_new_cells_and_propagates(self, server, tmp_path, monkeypatch):
        def fail():
            raise RuntimeError("not a backend failure")

        events = []
        with pytest.raises(RuntimeError, match="not a backend failure"):
            self.run_failing_first_cell(server, tmp_path, monkeypatch, fail, events)
        self.check_stopped(server, events, raised={"q0"})

    def test_interrupt_stops_new_cells(self, server, tmp_path, monkeypatch, ctrl_c):
        events = []
        with pytest.raises(KeyboardInterrupt):
            self.run_failing_first_cell(server, tmp_path, monkeypatch, ctrl_c, events)
        self.check_stopped(server, events, raised=set())

    def test_interrupt_while_the_workers_start_stops_the_pool(self, monkeypatch, ctrl_c):
        """Ctrl-C right after the last worker starts: no cell starts after
        it, and every cell that started ends before it propagates."""
        workers, starts, events = 4, [], []
        real_start = threading.Thread.start

        def start(thread):
            real_start(thread)
            starts.append(thread)
            if len(starts) == workers:
                events.append(("signal", None))
                ctrl_c()

        def run_cell(config, dataset, algo, label, index, connection):
            events.append(("start", index))
            time.sleep(0.05)
            events.append(("end", index))

        monkeypatch.setattr(threading.Thread, "start", start)
        monkeypatch.setattr(experiment, "_run_cell", run_cell)
        cells = [(None, None, index) for index in range(20)]
        with pytest.raises(KeyboardInterrupt):
            experiment._run_pooled(score_config(), None, cells, workers)
        propagated = list(events)
        assert wait_for(lambda: not any(thread.is_alive() for thread in starts))
        signalled = events.index(("signal", None))
        assert all(kind != "start" for kind, _ in events[signalled:])
        started = sorted(index for kind, index in propagated if kind == "start")
        assert started == sorted(index for kind, index in propagated if kind == "end")

    def test_interrupt_is_raised_ahead_of_a_cell_error(self, monkeypatch, ctrl_c):
        """Cell 0 fails while cell 1 runs; once cell 0's worker has recorded
        the error and ended, cell 1 sends Ctrl-C."""
        failing, second_started = [], threading.Event()

        def run_cell(config, dataset, algo, label, index, connection):
            if index == 0:
                failing.append(threading.current_thread())
                assert second_started.wait(5.0)
                raise RuntimeError("not a backend failure")
            second_started.set()
            assert wait_for(lambda: failing)
            failing[0].join(5.0)
            assert not failing[0].is_alive()
            ctrl_c()

        monkeypatch.setattr(experiment, "_run_cell", run_cell)
        cells = [(None, None, index) for index in range(2)]
        with pytest.raises(KeyboardInterrupt):
            experiment._run_pooled(score_config(), None, cells, 2)

    @pytest.mark.parametrize("kind", ["score", "noisy"])
    def test_score_and_noisy_sweeps_run_on_one_worker(self, kind, monkeypatch):
        names = []
        real_start = threading.Thread.start

        def start(thread):
            names.append(thread.name)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", start)
        config = score_config(kind)
        rows = run_experiment(config).rows
        assert names == ["prp-sort-cell-0"]
        dataset = experiment._load_dataset(config)
        algo = config.algorithms[0]
        assert rows == [
            experiment._run_cell(config, dataset, algo, algo.label(), query, None)
            for query in dataset.queries
        ]
        assert [row.status for row in rows] == ["ok"] * 6

    def test_interrupt_stops_a_score_sweep_at_a_cell_boundary(self, monkeypatch, ctrl_c):
        events = []
        real_run_algorithm = experiment.run_algorithm

        def run_algorithm(docs, cell, oracle):
            events.append("start")
            result = real_run_algorithm(docs, cell, oracle)
            if events.count("start") == 3:
                events.append("signal")
                ctrl_c()
                time.sleep(0.3)  # the calling thread records the interrupt
            events.append("end")
            return result

        monkeypatch.setattr(experiment, "run_algorithm", run_algorithm)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(score_config())
        assert events == ["start", "end"] * 2 + ["start", "signal", "end"]
