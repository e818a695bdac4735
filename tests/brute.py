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
