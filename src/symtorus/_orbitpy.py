"""BFS orbit kernel.

Closure of an integer tuple under a set of sparse linear moves acting on
A = Z^d / L, with L a lattice that contains N Z^d, given by its Hermite
basis B (lower triangular, its columns spanning L; see
``orbitcount.Span``). States are tuples of m*d ints: m entries of d
coordinates, each entry its box representative, 0 <= x_t < B[t][t]. A
move is a tuple of rows ``(j, ((i, c), ...))``; it sends state x to y
with

    y[j*d + t] = sum c * x[i*d + t]   (mod N)

for each listed row j and every t < d, then reduces each changed entry
into the box, and leaves the other rows alone. With L = N Z^d the box is
[0, N)^d and there is nothing to reduce.
"""

from symtorus.errors import OrbitSizeExceeded


def bfs_orbit(start, moves, m, basis, modulus, max_states):
    """Closure of ``start``, a state of box representatives, under all
    moves: the set of int tuples, as built (a frozen copy would double
    the peak memory of the closure)."""
    d = len(basis)
    start = tuple([x % modulus for x in start])
    if len(start) != m * d:
        raise ValueError("state length does not match m*d")
    # Column t of B is N e_t exactly when B[t][t] = N; the others reduce
    # coordinate t into [0, B[t][t]) and carry into the later ones.
    boxes = [(t, basis[t][t], tuple([(i, basis[i][t]) for i in range(t + 1, d)
                                     if basis[i][t]]))
             for t in range(d) if basis[t][t] != modulus]
    # Each move as (k, terms) per changed coordinate k of the state, and
    # its reductions (k, B[t][t], carries) per changed entry.
    ops = [
        (tuple([(j * d + t, tuple([(i * d + t, c) for i, c in terms]))
                for j, terms in move for t in range(d)]),
         tuple([(j * d + t, pivot,
                 tuple([(j * d + i, b) for i, b in carries]))
                for j, _ in move for t, pivot, carries in boxes]))
        for move in moves
    ]
    seen = {start}
    frontier = [start]
    depth = 0
    while frontier:
        depth += 1
        fresh = []
        for state in frontier:
            for op, reductions in ops:
                out = list(state)
                for k, terms in op:
                    acc = 0
                    for i, c in terms:
                        acc += c * state[i]
                    out[k] = acc % modulus
                for k, pivot, carries in reductions:
                    q, out[k] = divmod(out[k], pivot)
                    if q:
                        for i, b in carries:
                            out[i] = (out[i] - q * b) % modulus
                cand = tuple(out)
                if cand not in seen:
                    if len(seen) >= max_states:
                        raise OrbitSizeExceeded(max_states, depth, len(seen))
                    seen.add(cand)
                    fresh.append(cand)
        frontier = fresh
    return seen
