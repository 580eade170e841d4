(** Per-domain slots (thin wrapper over [Domain.DLS]).

    Each domain that touches the slot gets its own value, created on
    first access by the [make] initialiser.  This is the idiom behind
    the reusable scratch workspaces ([Rtr_graph.Dijkstra.Workspace])
    and the metrics cells: values are never shared across domains, so
    no locking is needed, and [Rtr_util.Pool] workers each lazily build
    their own copy.

    A [Pool] helper domain serves every run until it retires after
    [Pool.idle_period] parked, so a slot's value on a helper lives
    across back-to-back runs (and for the whole process on the main
    domain).  A slot must therefore hold scratch state that each use
    reinitialises, never state that belongs to one run. *)

type 'a t

val make : (unit -> 'a) -> 'a t
(** [make init] declares a slot; [init] runs once per domain, on that
    domain's first [get]. *)

val get : 'a t -> 'a
val set : 'a t -> 'a -> unit
