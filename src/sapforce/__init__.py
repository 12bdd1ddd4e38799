"""Zero forcing games on non-edges, exact Strong Arnold Property
verification, and the small-graph Colin de Verdiere type parameter."""

from . import families
from .canon import canonical_form, canonical_graph, enumerate_connected, enumerate_graphs
from .graphs import (CapExceededError, Graph, Graph6Error, GraphError,
                     encode_graph6, parse_graph6, parse_graphs)
from .linalg import (PatternError, PatternFamily, PerturbationError,
                     RationalMatrix, build_sap_matrix, has_sap, nullity,
                     odd_cycle_det, perturbation_witness, sample_matrix)
from .minors import clique_number, hadwiger, has_minor, vertex_cover_number
from .report import (ParameterReport, ReportInvariantError, ResultCache,
                     SurveyRow, compute_report, survey_graphs)
from .sapgame import (NonEdgeColoring, OddCycleForce, SapForce, TripleForce,
                      format_sap_trace, is_zsap_zero, replay_trace, sap_closure,
                      sap_forcing_number, vc_forcing_number)
from .xi import (MSizeError, T3FamilyData, XiCertificate, XiUnresolvedError,
                 load_t3_family, m_small, t3_minor, xi)
from .zeroforcing import (Force, Rule, closure, floor_force_sequence,
                          format_trace, is_zfs, min_zfs)

__version__ = "0.1.0"
