"""Context-aware clone-node detection with batch-verified location proofs.

The package splits into the protocol library (``ec``, ``sig``,
``trust``, ``context``) and the experiment harness (``sim``,
``metrics``, ``cli``).  ``sim.run_experiment`` is the main entry point
for programmatic use.
"""

from .context import (ContextInformation, LbsStore, LocationProof, ProofPresentation,
                      Verdict, generate_proof, sense_context,
                      verify_proof_batch)
from .ec import G, INFINITY, P256, Point, multi_scalar_mul, point_add, scalar_mul
from .metrics import MetricsSink, SimulationReport, expected_tree_messages
from .sig import (KeyPair, Signature, StarSignature, batch_verify, generate_keypair,
                  sign, verify_classic, verify_star)
from .sim import NetworkConfig, init_network, inject_clones, run_detection_round, run_experiment
from .trust import (ConfidenceRecord, FeedbackEntry, LocationObservation, TrustState,
                    explicit_confidence, implicit_confidence, select_verifiers,
                    total_confidence)

__version__ = "0.1.0"
