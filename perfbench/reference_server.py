"""A fixed stand-in server that ``serve`` measures the program against.

Served latency on a shared host follows the host's state -- how fast a
core runs, how long a sleeping thread takes to wake -- which drifts by
up to 2x over minutes, and a CPU-only kernel does not track it (the
latency is mostly waiting, not computing).  So ``run.py`` loads this
server with the same loops as the program's server, in short chunks
between the program's, and reports each ``serve`` figure as the
program's figure scaled by the reference's nominal over its measured
figure (see ``run.py``).

The request path has the shape of a micro-batched query server: an
asyncio HTTP/1.1 front end, a 2 ms coalescing wait, a hop to an
executor thread for the JSON work, and the answer written back.  It
imports nothing from ``repro`` and never changes with the program, so a
change to the program moves the program's figures and not these.

Protocol: prints ``ready PORT`` once listening; a line on stdin stops it::

    python3 perfbench/reference_server.py
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import sys

WAIT_S = 0.002


def answer(body: bytes) -> bytes:
    """The executor thread's work: parse the query, encode an answer."""
    query = json.loads(body)["query"]
    return json.dumps({"query": query, "answer": len(query) / 100.0}).encode()


async def serve_connection(reader, writer, executor) -> None:
    loop = asyncio.get_running_loop()
    try:
        while True:
            head = await reader.readuntil(b"\r\n\r\n")
            length = 0
            for line in head.split(b"\r\n")[1:]:
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value)
            body = await reader.readexactly(length)
            await asyncio.sleep(WAIT_S)
            payload = await loop.run_in_executor(executor, answer, body)
            writer.write(
                b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(payload), payload)
            )
            await writer.drain()
    except (asyncio.IncompleteReadError, ConnectionError):
        pass
    finally:
        writer.close()


async def main() -> None:
    with concurrent.futures.ThreadPoolExecutor(4) as executor:
        server = await asyncio.start_server(
            lambda reader, writer: serve_connection(reader, writer, executor),
            "127.0.0.1",
            0,
        )
        async with server:
            port = server.sockets[0].getsockname()[1]
            sys.stdout.write(f"ready {port}\n")
            sys.stdout.flush()
            await asyncio.get_running_loop().run_in_executor(None, sys.stdin.readline)


if __name__ == "__main__":
    asyncio.run(main())
