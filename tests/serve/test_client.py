"""``ServeClient`` decodes every error answer one way, against stub
responses (no server)."""

from __future__ import annotations

import io

import pytest

from repro.serve.client import ServeClient, ServeError


class StubResponse(io.BytesIO):
    """An ``http.client.HTTPResponse`` stand-in: a status and a body."""

    def __init__(self, status: int, body: bytes) -> None:
        super().__init__(body)
        self.status = status


class StubConnection:
    def close(self) -> None:
        pass


def stub(monkeypatch, status: int, body: bytes) -> ServeClient:
    client = ServeClient("http://127.0.0.1:1")
    monkeypatch.setattr(
        client, "_open", lambda *a: (StubConnection(), StubResponse(status, body))
    )
    return client


CALLS = {
    "json": lambda c: c.session("s-1"),
    "text": lambda c: c.metrics(),
    "telemetry": lambda c: list(c.telemetry("s-1")),
}


@pytest.mark.parametrize("call", sorted(CALLS))
@pytest.mark.parametrize(
    ("status", "body", "message"),
    [
        (404, b'{"schema": "repro.serve/v1", "error": "no such session: s-1"}',
         "no such session: s-1"),
        (502, b"<html>Bad Gateway</html>", "<html>Bad Gateway</html>"),
        (500, b'["not", "an object"]', '["not", "an object"]'),
        (503, b"\xff\xfe", "��"),
    ],
    ids=["json-error", "html", "json-list", "not-utf8"],
)
def test_every_error_body_decodes_one_way(monkeypatch, call, status, body, message):
    client = stub(monkeypatch, status, body)
    with pytest.raises(ServeError) as err:
        CALLS[call](client)
    assert (err.value.status, err.value.message) == (status, message)


def test_a_success_body_that_is_not_json_is_named(monkeypatch):
    with pytest.raises(ServeError, match="unparseable response body") as err:
        stub(monkeypatch, 200, b"<html>ok</html>").session("s-1")
    assert err.value.status == 200
