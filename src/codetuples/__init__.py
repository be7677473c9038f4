"""Binary code-tuples with bounded decoding delay.

A code-tuple is a finite family of code tables plus next-table maps; it
models an encoder that switches tables symbol by symbol.  This package
computes continuation sets, checks k-bit-delay decodability, evaluates
average codeword length through the stationary table distribution,
applies the three length-preserving rewrites, classifies tuples into the
nested families up to the two-table AIFV shape, runs a delay-bounded
codec, and searches bounded spaces exhaustively for minimum-cost tuples.
"""

from .bits import Bits
from .core import (Alphabet, CodeTuple, SourceDist, Table, make_tuple,
                   parse_code_tuple, parse_dist, serialize_code_tuple,
                   serialize_dist)
from .errors import (AlphabetMismatch, AmbiguousChain, CodeTupleError,
                     EmptySpace, FormatError, InvalidArgument,
                     NoConsistentCompletion, NonTerminatingRecursion,
                     NotExtendable, NotInClass, NotRegular,
                     StepLimitExceeded, UnknownSymbol, WrongTableCount)
from .prefix_sets import DEFAULT_MAX_K, PrefixSetTable, encode_from
from .analysis import (DecodabilityReport, ReachabilityReport, dead_tables,
                       delay_decodability, is_extendable, is_regular,
                       reachable_tables, two_continuation_tables)
from .markov import (approx_decimal, average_length, stationary_distribution,
                     table_length, transition_matrix)
from .classes import CLASS_NAMES, ClassReport, classify, is_aifv
from .transforms import (ChainDecomposition, TransformStep, TransformTrace,
                         chain_to_class, ddot, dot, extend_to_two_tables,
                         forced_bit, prefix_chain, prune_to_reachable,
                         rotate, steer_bit)
from .codec import (DanglingInfo, DecodeResult, RoundTripReport, decode,
                    encode, identification_delays, roundtrip_check)
from .search import (ComparisonReport, SearchResult, SearchSpace,
                     compare_aifv_huffman, enumerate_min,
                     enumerate_min_direct, huffman_length, space_size)
from .goldens import run_goldens

__version__ = "0.1.0"

__all__ = [
    "Alphabet", "Bits", "CLASS_NAMES", "ChainDecomposition", "ClassReport",
    "CodeTuple", "CodeTupleError", "ComparisonReport", "DanglingInfo",
    "DecodabilityReport", "DecodeResult", "DEFAULT_MAX_K", "EmptySpace",
    "FormatError", "InvalidArgument", "NoConsistentCompletion",
    "NonTerminatingRecursion", "NotExtendable", "NotInClass", "NotRegular",
    "PrefixSetTable",
    "ReachabilityReport", "RoundTripReport", "SearchResult", "SearchSpace",
    "SourceDist", "StepLimitExceeded", "Table", "TransformStep",
    "TransformTrace", "UnknownSymbol", "WrongTableCount", "AlphabetMismatch",
    "AmbiguousChain", "approx_decimal", "average_length", "chain_to_class",
    "classify", "compare_aifv_huffman", "dead_tables", "ddot", "decode",
    "delay_decodability", "dot", "encode", "encode_from",
    "enumerate_min", "enumerate_min_direct", "extend_to_two_tables",
    "forced_bit", "huffman_length", "identification_delays", "is_aifv",
    "is_extendable", "is_regular", "make_tuple", "parse_code_tuple",
    "parse_dist", "prefix_chain", "prune_to_reachable", "reachable_tables",
    "rotate", "roundtrip_check", "run_goldens", "serialize_code_tuple",
    "serialize_dist", "space_size", "stationary_distribution", "steer_bit",
    "table_length", "transition_matrix", "two_continuation_tables",
]
