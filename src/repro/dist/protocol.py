"""The repro.dist wire protocol: framing, deadlines, message shapes.

Transport is the stdlib :mod:`multiprocessing.connection` over TCP —
``Listener``/``Client`` with an HMAC ``authkey`` handshake, pickling
each message whole.  No third-party dependency, and the payloads are
exactly the picklable spec types the sharded executor already ships
across fork boundaries (:mod:`repro.parallel.spec`): a worker never
receives a live model, only the recipe to rebuild one.

Message vocabulary (plain tuples, first element the kind):

``("ping",)`` → ``("pong", PROTOCOL_VERSION)``
    Reachability handshake; the version reply refuses mixed fleets.
``("echo", payload)`` → ``("echo", payload)``
    Link-overhead probe (:mod:`repro.dist.probe`).
``("run", digest, spec)``
    Execute one :class:`~repro.parallel.spec.ShardSpec`.  The worker
    streams back ``("block", digest, LaneBlock)`` per lane block
    (one block for an unchunked spec) and finishes with ``("done",
    digest, n_blocks)``; a worker-side exception arrives as
    ``("error", digest, message)``.
``("shutdown",)``
    Graceful agent stop (no reply; the connection closes).

Every receive in this package goes through :func:`recv_message`, which
polls with a deadline before touching ``Connection.recv`` — a dead or
wedged peer surfaces as :class:`~repro.errors.DistTimeoutError`
instead of a forever-blocked dispatcher (lint rule L005 enforces this
pattern for all dist code).

Every connection runs with ``TCP_NODELAY`` (:func:`set_nodelay`, on the
dispatcher, worker and probe sockets alike).  The protocol has two
write-write-read patterns, and under Nagle's algorithm each one holds
the second small write until the peer's delayed ACK of the first
(~40 ms on Linux):

* **connect** — the client's last authkey-handshake write
  (``#WELCOME#``) is followed at once by ``("ping",)``, one stall per
  host on every ``Dispatcher`` construction;
* **block stream** — a worker sends ``("block", ...)`` after
  ``("block", ...)`` with no read between them, and each lane block's
  pickle is smaller than a loopback segment, so block *k+1* waits for
  the ACK of block *k*.
"""

from __future__ import annotations

import socket
import time

from repro.errors import DistError, DistTimeoutError

#: Bump on any incompatible message-shape change: mixed fleets refuse
#: each other at the ping handshake instead of failing mid-stream.
PROTOCOL_VERSION = 1

#: The message-tag vocabulary.  Every wire message is a tuple whose
#: first element is one of these; dispatch/worker/probe compare against
#: the constants, never the raw strings, so lint rule L010 can prove
#: the whole set is constructed, handled, and version-recorded.
MSG_PING = "ping"
MSG_PONG = "pong"
MSG_ECHO = "echo"
MSG_RUN = "run"
MSG_BLOCK = "block"
MSG_DONE = "done"
MSG_ERROR = "error"
MSG_SHUTDOWN = "shutdown"

#: Every tag, as a set — the introspection handle tests use.
MESSAGE_TAGS = frozenset(
    {
        MSG_PING,
        MSG_PONG,
        MSG_ECHO,
        MSG_RUN,
        MSG_BLOCK,
        MSG_DONE,
        MSG_ERROR,
        MSG_SHUTDOWN,
    }
)

#: Which sibling module(s) must pattern-match each tag (L010 checks
#: the named files really do).  ``worker`` consumes the dispatcher's
#: requests; ``dispatch`` consumes the worker's stream; the ``echo``
#: reply is consumed by both the worker (loopback) and the probe.
TAG_HANDLERS = {
    MSG_PING: ("worker",),
    MSG_PONG: ("dispatch",),
    MSG_ECHO: ("worker", "probe"),
    MSG_RUN: ("worker",),
    MSG_BLOCK: ("dispatch",),
    MSG_DONE: ("dispatch",),
    MSG_ERROR: ("dispatch",),
    MSG_SHUTDOWN: ("worker",),
}

#: The frozen record of each protocol version's (sorted) tag set.
#: Entries for shipped versions never change; growing or shrinking the
#: vocabulary means adding a new PROTOCOL_VERSION entry here — L010
#: flags a current tag set that does not match its history row.
TAG_HISTORY = {
    1: (
        MSG_BLOCK,
        MSG_DONE,
        MSG_ECHO,
        MSG_ERROR,
        MSG_PING,
        MSG_PONG,
        MSG_RUN,
        MSG_SHUTDOWN,
    ),
}

#: Default HMAC authkey for the Listener/Client handshake.  Dispatch
#: and worker agents must agree; deployments sharing a network segment
#: should pass their own secret.
DEFAULT_AUTHKEY = b"repro-dist"

#: Upper bound on one poll slice: even "wait forever" receives wake at
#: this cadence so an agent shutting down can notice promptly.
POLL_SLICE_S = 0.25


def parse_address(address: str) -> tuple[str, int]:
    """``"host:port"`` → ``(host, port)`` (IPv4/hostname form)."""
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise DistError(
            f"worker address must be 'host:port', got {address!r}"
        )
    try:
        return host, int(port)
    except ValueError:
        raise DistError(
            f"worker address port must be an integer, got {address!r}"
        )


def format_address(address: tuple[str, int]) -> str:
    return f"{address[0]}:{address[1]}"


def set_nodelay(conn) -> None:
    """Disable Nagle's algorithm on a connected ``Connection``.

    The option lives on the socket, not the descriptor, so setting it
    through a ``fromfd`` duplicate (closed on exit) configures ``conn``
    itself.  An ``OSError`` (a peer that reset right after the
    handshake) propagates to the caller, which owns the connection.
    """
    with socket.fromfd(
        conn.fileno(), socket.AF_INET, socket.SOCK_STREAM
    ) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def send_message(conn, message: tuple) -> None:
    """Pickle one message onto the connection."""
    conn.send(message)


def recv_message(conn, deadline_s: "float | None"):
    """Receive one message, polling under a deadline.

    ``deadline_s`` is the remaining time budget in seconds (``None``:
    wait indefinitely, in :data:`POLL_SLICE_S` slices so the caller's
    surrounding loop can still observe shutdown flags between slices).
    Raises :class:`~repro.errors.DistTimeoutError` when the budget runs
    out; ``EOFError``/``OSError`` from a dead peer propagate to the
    caller, which owns the requeue decision.
    """
    if deadline_s is not None and deadline_s <= 0:
        raise DistTimeoutError(
            "deadline expired before the peer sent anything"
        )
    limit = None if deadline_s is None else time.monotonic() + deadline_s
    while True:
        remaining = None if limit is None else limit - time.monotonic()
        if remaining is not None and remaining <= 0:
            raise DistTimeoutError(
                f"peer sent nothing within the {deadline_s:.3g}s deadline"
            )
        slice_s = (
            POLL_SLICE_S
            if remaining is None
            else min(POLL_SLICE_S, remaining)
        )
        if conn.poll(slice_s):
            return conn.recv()


def check_message(message, expected_kind: str) -> tuple:
    """Assert one message's kind, with a protocol-mismatch error."""
    if not isinstance(message, tuple) or not message:
        raise DistError(
            f"malformed wire message {message!r} (expected a non-empty "
            "tuple)"
        )
    if message[0] != expected_kind:
        raise DistError(
            f"expected a {expected_kind!r} message, got {message[0]!r}"
        )
    return message
