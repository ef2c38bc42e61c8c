"""Tools for matching-card decks: any two cards share exactly one symbol."""

from .analysis import (
    Classification,
    ExistenceStatus,
    IdentityReport,
    MultiplicityTable,
    PairedExistence,
    bruck_ryser_excluded,
    check_identities,
    check_kn2_lemma,
    classify,
    find_common_triple,
    fundamental_number,
    idempotent_orders,
    multiplicities,
    paired_existence,
)
from .constructions import (
    COLUMNS,
    ROWS,
    RemovalInvalidError,
    UnsupportedConstructionError,
    build_blocks,
    build_grid_blocks,
    build_paired,
    build_two_symmetric,
    max_blocks,
    remove_cards,
)
from .deck import (
    Deck,
    DeckError,
    InvalidDeckError,
    InvariantViolation,
    MalformedCardError,
    ValidationResult,
    Violation,
    deck_from_cards,
    normalize,
    partition_by_card,
    star,
    validate,
)
from .enumeration import (
    CanonicalForm,
    CensusEntry,
    CensusReport,
    EnumerationResult,
    LengthProbeReport,
    canonical_form,
    census,
    enumerate_decks,
    probe_length_conjecture,
)
from .formats import deck_payload, parse_deck_text, render_deck_text, to_json
from .maximality import (
    CompletionResult,
    MaximalityVerdict,
    complete,
    find_extension,
    is_maximal,
    prop_condition_holds,
    sufficient_maximal,
)

__version__ = "0.1.0"
