(** Link-state routing tables (the IGP's steady state before failures).

    Every router runs SPF over the same topology view, so the table is
    computed globally: for each destination, a [To_root] shortest-path
    tree (correct under asymmetric costs), with the deterministic
    tie-break "smallest next-hop id among equal-cost choices".  That
    rule is consistent hop by hop — following [next_hop] from any
    source traces a well-defined default routing path, the paper's
    p_ij. *)

module Graph = Rtr_graph.Graph
module View = Rtr_graph.View

type t

val compute : View.t -> t
(** O(n * Dijkstra) over the live part of the view.  Over [View.full g]
    this is the pre-failure routing state; over a damage view it is the
    table the IGP converges to after the failed elements are removed. *)

val compute_filtered :
  ?node_ok:(Graph.node -> bool) ->
  ?link_ok:(Graph.link_id -> bool) ->
  Graph.t ->
  t
(** @deprecated Closure-pair reference implementation, kept as the
    oracle for the view/closure equivalence suite. *)

val graph : t -> Graph.t

val next_hop : t -> src:Graph.node -> dst:Graph.node -> Graph.node option
(** The default next hop, [None] when [src = dst] or [dst] is
    unreachable in the pre-failure topology. *)

val next_link : t -> src:Graph.node -> dst:Graph.node -> Graph.link_id option

val next_hop_int : t -> src:Graph.node -> dst:Graph.node -> Graph.node
(** [next_hop] as a bare int, [-1] where [next_hop] is [None]: two
    array reads, no allocation — for per-hop loops such as the flow
    engine's route walks. *)

val next_link_int : t -> src:Graph.node -> dst:Graph.node -> Graph.link_id
(** [next_link] as a bare int, [-1] where [next_link] is [None]. *)

val dist : t -> src:Graph.node -> dst:Graph.node -> int
(** Cost of the default routing path; [max_int] if unreachable, [0] on
    the diagonal. *)

val default_path : t -> src:Graph.node -> dst:Graph.node -> Rtr_graph.Path.t option
(** The full default routing path, by following [next_hop]. *)

(** The table inverted by link: what a failure-driven consumer needs to
    visit only the default paths a set of dead links breaks.  It covers
    every routed (dst, src) pair: [src <> dst] with a default next
    link. *)
module Link_index : sig
  type t = private {
    n : int;  (** node count *)
    link_off : int array;
        (** [m + 1] offsets: link [l]'s pairs are at
            [link_off.(l) .. link_off.(l + 1) - 1] of [pair_dst] and
            [pair_src] *)
    pair_dst : int array;
    pair_src : int array;
        (** the pairs whose default next link is that link, ascending
            by (dst, src) within each link; [src] is always one of the
            link's two endpoints *)
    child_off : int array;
        (** [n * n + 1] offsets keyed by [dst * n + u]: [u]'s children
            in the routing tree towards [dst] are
            [children.(child_off.(k)) .. children.(child_off.(k + 1) - 1)],
            so [dst]'s routed sources number
            [child_off.((dst + 1) * n) - child_off.(dst * n)] *)
    children : int array;  (** the sources whose next hop is [u], ascending *)
  }
end

val link_index : t -> Link_index.t
(** Built in O(n^2) on first use and cached in the table, so
    [compute] does not pay for it.  Safe to call from several domains
    at once: every caller gets the same published index. *)

val equal : t -> t -> bool
(** Structural equality of the routing state (same underlying graph,
    same next hops, links and distances) — the equivalence suite's
    notion of "bit-for-bit identical tables". *)
