"""Multi-label classification of Spanish legal judgements with decision-path
explanations: rule-based entity extraction, anonymisation, n-gram features,
binary/multi-class transformation strategies over tree ensembles, and
natural-language plus graph explanations."""

__version__ = "0.1.0"


class DataError(ValueError):
    """Input lexcat refuses: a corpus, config, lexicon, model file or value
    it cannot use. Each module's error type subclasses it, and the command
    line exits 2 on it."""
