"""Bad ``Content-Length`` headers get a defined 4xx on every HTTP front end.

The thread server, the asyncio server and the session router all parse
the header with :func:`repro.serving.server.parse_content_length`.  Each
bad value must be answered with its status and a clean close — never a
dropped connection or an unhandled exception — and the front end must
keep serving fresh connections afterwards.
"""

from __future__ import annotations

import logging
import socket
from pathlib import Path

import pytest

import repro
from repro.persistence.router import SessionRouter
from repro.serving import AsyncConversationServer, ConversationServer
from repro.serving.server import MAX_BODY_BYTES, parse_content_length
from tests.persistence.conftest import toy_artifacts  # noqa: F401 - fixture
from tests.serving.conftest import build_toy_agent, http_text

SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)

BAD_LENGTHS = [
    ("abc", 400),
    ("-5", 400),
    ("+5", 400),
    ("٢", 400),  # ARABIC-INDIC DIGIT TWO: int() accepts it, HTTP does not
    (str(MAX_BODY_BYTES + 1), 413),
]


@pytest.fixture(scope="module", params=["thread", "async", "router"])
def front_end(request, tmp_path_factory):
    """A running front end's base address, one per transport."""
    if request.param == "thread":
        with ConversationServer(build_toy_agent(), port=0) as server:
            yield server.address
    elif request.param == "async":
        with AsyncConversationServer(build_toy_agent(), port=0) as server:
            yield server.address
    else:
        artifacts = request.getfixturevalue("toy_artifacts")
        with pytest.MonkeyPatch.context() as patch:
            # The worker is a fresh interpreter that finds the package
            # through PYTHONPATH.
            patch.setenv("PYTHONPATH", SRC_DIR)
            router = SessionRouter(
                1,
                tmp_path_factory.mktemp("router"),
                port=0,
                spawn_timeout=120.0,
                worker_args=[
                    "--space", str(artifacts / "space.json"),
                    "--data", str(artifacts / "kb"),
                    "--fsync", "never",
                    "--turn-threads", "2",
                ],
            )
            with router:
                yield router.address


def post_with_length(address: str, value: str) -> tuple[int, bytes]:
    """POST /chat with a raw ``Content-Length`` and no body.

    Returns the status and everything the server sent before closing.
    Sending no body means the server has nothing unread when it closes,
    so the close is a clean FIN rather than a reset.
    """
    host, port = address.removeprefix("http://").rsplit(":", 1)
    head = (
        "POST /chat HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {value}\r\n"
        "\r\n"
    ).encode("utf-8")
    with socket.create_connection((host, int(port)), timeout=15.0) as sock:
        sock.sendall(head)
        received = b""
        while chunk := sock.recv(65536):
            received += chunk
    status_line = received.split(b"\r\n", 1)[0]
    return int(status_line.split()[1]), received


@pytest.mark.parametrize("value,status", BAD_LENGTHS,
                         ids=["abc", "negative", "plus-sign", "non-ascii-digit",
                              "too-large"])
def test_bad_content_length_gets_4xx_then_serves_fresh_connection(
    front_end, value, status, caplog, capfd
):
    caplog.set_level(logging.ERROR)
    got, response = post_with_length(front_end, value)
    assert got == status
    assert (b'"too_large"' if status == 413 else b'"bad_request"') in response
    health_status, _ = http_text(front_end + "/healthz")
    assert health_status == 200
    assert not [r for r in caplog.records if r.levelno >= logging.ERROR]
    assert "Traceback" not in capfd.readouterr().err


@pytest.mark.parametrize("value,expected", [
    (None, 0), ("", 0), ("0", 0), (" 12 ", 12), (str(MAX_BODY_BYTES), MAX_BODY_BYTES),
])
def test_parse_content_length_accepts_ascii_digits(value, expected):
    assert parse_content_length(value) == expected
