"""Sequence modeling with convolutionally contextualized gated recurrence.

A small float64 library: a tape-based autodiff core, gated recurrent cells
whose gate inputs can be prepared by same-length convolution banks, a
sentiment-classification pipeline with cross-validation, and cloze-style
document features — all behind one CLI.
"""

from .autodiff import (GradCheckReport, Tape, Tensor, active_tape,
                       finite_diff_gradcheck)
from .classifier import (SentimentModel, TrainConfig, bce_loss, evaluate,
                         load_checkpoint, save_checkpoint, train_epoch,
                         train_on_split)
from .data import (Batch, Corpus, Sample, Vocab, batch_and_pad, build_vocab,
                   load_corpus, load_pretrained_embeddings, make_folds,
                   tokenize)
from .errors import (ConfigError, ContractError, CruError, DimensionError,
                     NumericError, ParseError)
from .layers import same_length_conv
from .optim import Adam
from .rc_features import (count_of_query_word, doc_word_freq,
                          encode_bidirectional_enriched, enrich_embeddings)
from .recurrent import VARIANTS, Packing, cell_shapes, make_cell, pack, run_sequence

__version__ = "0.1.0"
