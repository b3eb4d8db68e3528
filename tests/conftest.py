import base64
import threading

import numpy as np
import pytest


def bell_psi_minus() -> np.ndarray:
    """|psi-><psi-| = singlet projector on two qubits."""
    psi = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    return np.outer(psi, psi).astype(complex)


def random_density(rng, d: int, batch: int | None = None) -> np.ndarray:
    shape = (batch, d, d) if batch else (d, d)
    G = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    M = G @ np.conj(np.swapaxes(G, -1, -2))
    tr = np.trace(M, axis1=-2, axis2=-1).real
    return M / (tr[..., None, None] if batch else tr)


def loop_partial_transpose(rho: np.ndarray, m: int, n: int) -> np.ndarray:
    """Partial transpose over B of one m*n matrix, entry by entry."""
    pt = np.empty_like(rho)
    for i in range(m):
        for j in range(n):
            for k in range(m):
                for l in range(n):
                    pt[i * n + j, k * n + l] = rho[i * n + l, k * n + j]
    return pt


def haar_unitary(rng, d: int) -> np.ndarray:
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Q, R = np.linalg.qr(G)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def joined(threads, timeout=120):
    """Start the threads and wait for each to finish within timeout s."""
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout)
        assert not t.is_alive()


def in_fresh_thread(fn):
    """fn() run in a new thread, whose kernel buffers start empty."""
    out = []
    joined([threading.Thread(target=lambda: out.append(fn()))])
    return out[0]


def packed(values, width: int = 8) -> str:
    """values as the checkpoint count codec stores them, at the given byte width."""
    raw = np.asarray(values, dtype=f"<u{width}").tobytes()
    return f"u{width}:" + base64.b64encode(raw).decode()


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
