"""BFS orbit kernel.

Closure of an integer tuple under a set of sparse linear moves acting
modulo N. States are tuples of m*d ints in [0, N): m entries of d
coordinates each. A move is a tuple of rows ``(j, ((i, c), ...))``; it
sends state x to y with

    y[j*d + t] = sum c * x[i*d + t]   (mod N)

for each listed row j and every t < d, and leaves the other rows alone.
"""

from symtorus.errors import OrbitSizeExceeded


def bfs_orbit(start, moves, m, d, modulus, max_states):
    """Closure of ``start`` under all moves: the set of int tuples, as
    built (a frozen copy would double the peak memory of the closure)."""
    start = tuple(x % modulus for x in start)
    if len(start) != m * d:
        raise ValueError("state length does not match m*d")
    # Each move as (k, terms) per changed coordinate k of the state.
    ops = [
        tuple((j * d + t, tuple((i * d + t, c) for i, c in terms))
              for j, terms in move for t in range(d))
        for move in moves
    ]
    seen = {start}
    frontier = [start]
    depth = 0
    while frontier:
        depth += 1
        fresh = []
        for state in frontier:
            for op in ops:
                out = list(state)
                for k, terms in op:
                    acc = 0
                    for i, c in terms:
                        acc += c * state[i]
                    out[k] = acc % modulus
                cand = tuple(out)
                if cand not in seen:
                    if len(seen) >= max_states:
                        raise OrbitSizeExceeded(max_states, depth, len(seen))
                    seen.add(cand)
                    fresh.append(cand)
        frontier = fresh
    return seen
