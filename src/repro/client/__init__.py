"""libmemcached-style client with the paper's non-blocking extensions.

Public API (Section IV, Listing 1), mapped from C to Python generators:

====================  =====================================================
paper API             this package
====================  =====================================================
``memcached_set``     ``MemcachedClient.set`` (blocking)
``memcached_get``     ``MemcachedClient.get`` (blocking)
``memcached_iset``    ``MemcachedClient.iset`` — returns at its call
                      instant, once the request is handed to the
                      communication engine; its API overhead moves the
                      caller's clock (``MemcachedClient.now``), where
                      the next call starts; key/value buffers must NOT
                      be reused yet
``memcached_iget``    ``MemcachedClient.iget`` — same, for Get
``memcached_bset``    ``MemcachedClient.bset`` — returns once the value
                      has left the client buffer (buffer reusable)
``memcached_bget``    ``MemcachedClient.bget`` — returns once the request
                      header is on the wire (key buffer reusable)
``memcached_wait``    ``MemcachedClient.wait`` — block until completion
``memcached_test``    ``MemcachedClient.test`` — non-blocking poll
``memcached_req``     :class:`repro.client.request.MemcachedReq`
====================  =====================================================

All methods are generators; call them with ``yield from`` inside a
simulation process. Whatever the entry point, a completed request's
outcome is read uniformly via ``req.result()`` (a :class:`ReqResult`
with status/value-length/latency). The full public reference lives in
``docs/api.md``.
"""

from repro.client.backend import BackendDatabase
from repro.client.client import ClientConfig, MemcachedClient, UnsupportedOperation
from repro.client.hashing import KetamaRouter, ModuloRouter, one_at_a_time
from repro.client.request import MemcachedReq, OpRecord, ReqResult

__all__ = [
    "MemcachedClient",
    "ClientConfig",
    "UnsupportedOperation",
    "MemcachedReq",
    "OpRecord",
    "ReqResult",
    "BackendDatabase",
    "ModuloRouter",
    "KetamaRouter",
    "one_at_a_time",
]
