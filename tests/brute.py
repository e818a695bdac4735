"""Brute-force square tests straight from the definition.

The differential tests compare the square kernel, the certifiers and the
depth-first walkers against these.
"""
from shufflecraft.words import SquareOccurrence


def brute_find_square(w):
    """Leftmost square, shortest half at that start."""
    for i in range(len(w)):
        for h in range(1, (len(w) - i) // 2 + 1):
            if w[i:i + h] == w[i + h:i + 2 * h]:
                return SquareOccurrence(i, h)
    return None


def brute_ends_in_square(w):
    n = len(w)
    return any(w[n - 2 * h:n - h] == w[n - h:] for h in range(1, n // 2 + 1))


def brute_closing_squares(x, b, before):
    """Halves L of the squares y[s:s + 2L] of y = x + b with s < before and
    s + L <= len(x) < s + 2L, so that len(x) falls in the right half."""
    y, m = x + b, len(x)
    return sorted({L for s in range(min(before, m))
                   for L in range((m - s) // 2 + 1, min(m - s, (len(y) - s) // 2) + 1)
                   if y[s:s + L] == y[s + L:s + 2 * L]})


def brute_opening_squares(p, b):
    """Halves L of the squares y[s:s + 2L] of y = p + b with
    s < len(p) <= s + L, so that len(p) falls in the left half or at the
    middle."""
    y, m = p + b, len(p)
    return sorted({L for s in range(m)
                   for L in range(m - s, (len(y) - s) // 2 + 1)
                   if y[s:s + L] == y[s + L:s + 2 * L]})
