"""Rebuild the counting table and the length-8 listing from scratch.

Everything here is recomputed by backtracking search; nothing is read from
the stored catalog.  Takes a few seconds.
"""

from shufflecraft import distinct_self_shuffles, enumerate_square_free, enumeration_table

print("per-length counts (square-free / self-shuffle words / operands):")
for row in enumeration_table(26):
    print(
        f"  {row.length:3d}  {row.square_free_count:6d}"
        f"  {row.shuffle_word_count:5d}  {row.shuffleable_u_count:4d}"
    )

print()
print("length-8 operands with prefix 01 admitting a square-free self-shuffle:")
for u in enumerate_square_free(3, 8):
    if not u.startswith("01"):
        continue
    words = distinct_self_shuffles(u)
    for word, beta in sorted(words.items()):
        print(f"  {u}  {word}  (beta {beta})")
