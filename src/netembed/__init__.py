"""netembed: nets in normed-space balls, the graphs they carry, degree-3
gadget expansions, and randomized low-distortion polyline embeddings, with
exact or Monte Carlo audits of every claimed bound."""

from .classify import Classification, classify, embeddability_verdict
from .embeddings import (EmbedParams, FractionEstimate, PolylineEmbedding,
                         TgAudit, audit_tg, default_strict_params,
                         embedding_from_json, embedding_to_json,
                         estimate_suitable_fraction, mg_positions, place_edges,
                         practical_params, subdivision_tg_points,
                         tg_distances, verify_embedding, wilson_interval)
from .errors import (InternalConsistencyError, PlacementError, SamplingError,
                     ValidationError)
from .gadgets import (GadgetGraph, ProductAudit, SubdividedGraph, anchor_map,
                      audit_anchor_map, audit_product_map, build_gadget,
                      gadget_to_json, product_metric, subdivide,
                      verify_product_cases)
from .graphs import (DistortionReport, FiniteMetric, Graph, audit,
                     audit_pair_rows, bfs_from, from_edges,
                     graph_from_json, graph_to_dot, graph_to_json,
                     is_connected, max_degree, write_audit_csv)
from .net_graphs import (NetGraph, PathBoundReport, audit_identity_embedding,
                         build_net_graph, degree_bound, net_graph_from_json,
                         net_graph_from_net, net_graph_to_json, rescaled_unit,
                         verify_edge_rule, verify_path_bound)
from .nets import (Net, NetAudit, build_net, nearest_net_point, net_from_json,
                   net_to_json, verify_maximality, verify_net)
from .spaces import (NormedSpace, Segment, as_vector, custom_space,
                     direct_sum_l1, lp_space, norms, parse_space,
                     point_segment_distance, sample_ball_many,
                     segment_segment_distance, space_from_json,
                     space_to_json)

__version__ = "0.1.0"
