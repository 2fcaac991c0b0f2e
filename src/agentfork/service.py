"""The HTTP service backend: children run on an external model service.

Nothing on the run path imports this module, so a run never loads the
HTTP stack (``urllib.request`` pulls in ``http.client``, ``email`` and
``ssl``). A caller that wants a service backend imports it from here.
"""

from __future__ import annotations

import os
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


def http_transport(endpoint: str, token: str | None, timeout: float) -> Callable[[bytes], bytes]:
    """POST encoded spawn packages to a model service, return its bytes.

    ``timeout`` bounds the whole request, not only each socket
    operation: the body is read in chunks, and after each one the call
    raises once the body has passed ``MAX_RESPONSE_BYTES`` or the request
    has run past ``timeout`` seconds. The scheduler records either as an
    invalid child. Each read waits at most ``timeout`` seconds for data,
    so a service that keeps sending ends the call within ``timeout`` plus
    the gap between its sends, and one that stalls within twice
    ``timeout``. The status line and headers are read by ``urlopen``,
    under its per-operation ``timeout`` only."""

    def send(payload: bytes) -> bytes:
        deadline = time.monotonic() + timeout
        request = urllib.request.Request(
            endpoint, data=payload, headers={"Content-Type": "application/json"}, method="POST"
        )
        if token:
            request.add_header("Authorization", f"Bearer {token}")
        chunks: list[bytes] = []
        received = 0
        with urllib.request.urlopen(request, timeout=timeout) as response:
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
