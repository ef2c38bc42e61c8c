"""Shared fixture data: hand-checkable decks used across the test modules."""

FANO_ROWS = [
    ["5", "1", "2"],
    ["5", "3", "4"],
    ["6", "1", "3"],
    ["6", "2", "4"],
    ["7", "1", "4"],
    ["7", "2", "3"],
    ["5", "6", "7"],
]

FANO_TEXT = "\n".join(" ".join(row) for row in FANO_ROWS) + "\n"

# The four-card deck on symbols a..f in which every symbol sits on two cards.
TWO_SYM_3_ROWS = [
    ["a", "b", "c"],
    ["a", "d", "e"],
    ["b", "d", "f"],
    ["c", "e", "f"],
]

# 13-card full deck of order 4 over a 3x3 grid: rows, columns, two diagonal
# paces, block symbols 10..13, and the pivot card.
PAIRED_4_TEXT = """\
10 1 2 3
10 4 5 6
10 7 8 9
11 1 4 7
11 2 5 8
11 3 6 9
12 1 5 9
12 2 6 7
12 3 4 8
13 1 6 8
13 2 4 9
13 3 5 7
10 11 12 13
"""

# Order-7 deck from three blocks over a 6x6 grid: rows, columns, pace 1.
THREE_BLOCK_TEXT = """\
37 1 2 3 4 5 6
37 7 8 9 10 11 12
37 13 14 15 16 17 18
37 19 20 21 22 23 24
37 25 26 27 28 29 30
37 31 32 33 34 35 36
38 1 7 13 19 25 31
38 2 8 14 20 26 32
38 3 9 15 21 27 33
38 4 10 16 22 28 34
38 5 11 17 23 29 35
38 6 12 18 24 30 36
39 1 8 15 22 29 36
39 2 9 16 23 30 31
39 3 10 17 24 25 32
39 4 11 18 19 26 33
39 5 12 13 20 27 34
39 6 7 14 21 28 35
"""

THREE_BLOCK_ROWS = [line.split() for line in THREE_BLOCK_TEXT.splitlines()]

# the checks of ``check_identities``, in the order it makes them
IDENTITY_NAMES = (
    "per_card_sum",
    "total_sum",
    "square_sum",
    "mult_at_most_order",
    "mult_star_bound",
    "cards_at_most_length",
    "mean_bounds",
    "deck_mean_vs_card_mean",
    "card_count_chain",
    "length_chain",
    "popular_multiplicity",
    "full_multiplicity_forces_length",
    "symmetric_length_cap",
    "symmetric_pair_deficit",
    "saturated_star_equivalence",
)
