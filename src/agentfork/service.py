"""The HTTP service backend: children run on an external model service.

Nothing on the run path imports this module, so a run never loads the
HTTP stack (``urllib.request`` pulls in ``http.client``, ``email`` and
``ssl``). A caller that wants a service backend imports it from here.
"""

from __future__ import annotations

import http.client
import os
import socket
import time
import urllib.request
from typing import Callable

from .protocol import ResumePackage, SpawnPackage, decode_package, encode_package
from .runtime import OrchestrationError

ENDPOINT_ENV = "AGENTFORK_SERVICE_ENDPOINT"
TOKEN_ENV = "AGENTFORK_SERVICE_TOKEN"
# The most response bytes the transport reads before it gives up. The
# largest encoded resume package any bundled or benchmark workload
# produces is 904 bytes (fanout); 16 MiB is about 18,000 times that.
MAX_RESPONSE_BYTES = 16 * 2**20
READ_CHUNK = 64 * 2**10


class _DeadlineSocket(socket.socket):
    """A connected socket whose every read ends by ``deadline``, a
    ``time.monotonic()`` instant: each waits at most the time left, and
    one past the deadline raises ``TimeoutError``."""

    deadline = 0.0

    def recv_into(self, buffer, nbytes=0, flags=0):
        remaining = self.deadline - time.monotonic()
        if remaining <= 0.0:
            raise TimeoutError("timed out")
        self.settimeout(remaining)
        return super().recv_into(buffer, nbytes, flags)


class _DeadlineConnection(http.client.HTTPConnection):
    """An HTTP connection that reads its whole response, status line and
    headers included, within ``timeout`` seconds of being made."""

    def __init__(self, host, timeout, **kwargs):
        super().__init__(host, timeout=timeout, **kwargs)
        self.deadline = time.monotonic() + timeout

    def connect(self):
        super().connect()
        plain = self.sock
        self.sock = _DeadlineSocket(plain.family, plain.type, plain.proto, plain.detach())
        self.sock.deadline = self.deadline
        # Sends keep the per-operation timeout.
        self.sock.settimeout(self.timeout)


class _DeadlineHandler(urllib.request.HTTPHandler):
    def http_open(self, req):
        return self.do_open(_DeadlineConnection, req)


def http_transport(endpoint: str, token: str | None, timeout: float) -> Callable[[bytes], bytes]:
    """POST encoded spawn packages to a model service, return its bytes.

    ``timeout`` bounds the whole request, not only each socket
    operation. Over ``http``, every read of the response, status line
    and headers included, waits at most until ``timeout`` seconds after
    the request began, so a service that drips its headers or its body
    ends the call within ``timeout``. The body is read in chunks, and
    after each one the call also raises once the body has passed
    ``MAX_RESPONSE_BYTES`` or the request has run past ``timeout``
    seconds; over ``https``, whose reads only the per-operation
    ``timeout`` bounds, that check is the deadline. The scheduler records
    each of these as an invalid child."""
    opener = urllib.request.build_opener(_DeadlineHandler)

    def send(payload: bytes) -> bytes:
        deadline = time.monotonic() + timeout
        request = urllib.request.Request(
            endpoint, data=payload, headers={"Content-Type": "application/json"}, method="POST"
        )
        if token:
            request.add_header("Authorization", f"Bearer {token}")
        chunks: list[bytes] = []
        received = 0
        with opener.open(request, timeout=timeout) as response:
            while chunk := response.read1(READ_CHUNK):
                received += len(chunk)
                if received > MAX_RESPONSE_BYTES:
                    raise OrchestrationError(f"service response exceeds {MAX_RESPONSE_BYTES} bytes")
                if time.monotonic() > deadline:
                    raise TimeoutError(f"service response timed out: not whole after {timeout} s")
                chunks.append(chunk)
        return b"".join(chunks)

    return send


class ServiceBackend:
    """Runs children on an external model service.

    The wire contract is exactly the package codec: the request body is
    an encoded SpawnPackage, the response an encoded ResumePackage.
    """

    def __init__(self, transport: Callable[[bytes], bytes]):
        self.transport = transport

    @classmethod
    def from_env(cls, timeout: float) -> "ServiceBackend":
        """Backend for the service named in the environment; pass the
        run's ``SimulatorConfig.child_timeout_secs`` as ``timeout``."""
        endpoint = os.environ.get(ENDPOINT_ENV)
        if not endpoint:
            raise OrchestrationError(f"{ENDPOINT_ENV} is not set")
        return cls(http_transport(endpoint, os.environ.get(TOKEN_ENV), timeout))

    def run(self, package: SpawnPackage, outcome_key: str = "") -> ResumePackage:
        response = self.transport(encode_package(package))
        decoded = decode_package(response)
        if not isinstance(decoded, ResumePackage):
            raise OrchestrationError("service returned a spawn package, expected a resume package")
        return decoded
