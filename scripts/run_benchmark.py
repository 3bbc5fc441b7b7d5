#!/usr/bin/env python3
"""End-to-end benchmark on the synthetic corpus.

Generates the 2000-document, 8-class corpus and cross-validates the tuned
random-forest multi-class pipeline (the headline configuration). With
--all, every (strategy, model) pair is evaluated, which takes considerably
longer because the binary strategy trains one forest per class.
"""

import argparse
import itertools
import sys
import time
import warnings

from lexcat import evaluation, trees
from lexcat.lexica import load_lexica
from lexcat.pipeline import PipelineConfig
from lexcat.synth import SynthSpec, generate_corpus


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--docs", type=int, default=2000)
    parser.add_argument("--classes", type=int, default=8)
    parser.add_argument("--estimators", type=int, default=200)
    parser.add_argument("--folds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--all", action="store_true", help="evaluate all strategy/model pairs")
    args = parser.parse_args()

    corpus = generate_corpus(
        SynthSpec(n_docs=args.docs, n_classes=args.classes, seed=args.seed)
    )
    lexica = load_lexica()
    print(f"corpus: {corpus.n} documents, {args.classes} combination classes")
    print(evaluation.REPORT_HEADER)

    pairs = itertools.product(trees.STRATEGIES, trees.VARIANTS) if args.all else [("mts", "rf")]
    for strategy, model in pairs:
        config = PipelineConfig(
            strategy=strategy,
            model=model,
            criterion="gini",
            max_depth=100,
            min_samples_leaf=10,
            min_samples_split=2,
            n_estimators=args.estimators,
            seed=args.seed,
        )
        t0 = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = evaluation.cross_validate(
                corpus, config, k=args.folds, seed=args.seed, lexica=lexica
            )
        print(evaluation.report_row(strategy, model, report))
        sys.stderr.write(f"# {strategy}/{model}: {time.perf_counter() - t0:.1f}s wall\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
