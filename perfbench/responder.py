"""A do-nothing HTTP responder: the baseline ``service_admit`` divides by.

    python3 perfbench/responder.py     # prints http://127.0.0.1:<port>

It answers every request on a keep-alive connection with the same
fixed ``201 {"created":true}``, on the same asyncio stream machinery
the daemon serves with, and calls no code of the program.  On a shared
virtual machine most of a low-rate admission's latency is the time the
host takes to wake the idle vCPUs of the client and the server, which
moved the daemon's figure by up to half over a few hours; the
responder, loaded in windows that alternate with the daemon's, pays the
same wake-ups and almost nothing else, so the daemon's latency in units
of the responder's holds still while the host drifts.
"""

from __future__ import annotations

import asyncio

BODY = b'{"created":true}'
RESPONSE = (
    b"HTTP/1.1 201 Created\r\nContent-Type: application/json\r\n"
    b"Content-Length: %d\r\n\r\n%s" % (len(BODY), BODY)
)


async def _serve_connection(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
    try:
        while True:
            head = await reader.readuntil(b"\r\n\r\n")
            length = 0
            for line in head.split(b"\r\n"):
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value)
            if length:
                await reader.readexactly(length)
            writer.write(RESPONSE)
    except (asyncio.IncompleteReadError, ConnectionError):
        pass  # the client closed the connection
    finally:
        writer.close()


async def _main() -> None:
    server = await asyncio.start_server(_serve_connection, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    print(f"http://127.0.0.1:{port}", flush=True)
    await server.serve_forever()


if __name__ == "__main__":
    asyncio.run(_main())
