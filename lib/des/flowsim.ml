module Graph = Rtr_graph.Graph
module View = Rtr_graph.View
module Damage = Rtr_failure.Damage
module Route_table = Rtr_routing.Route_table
module Convergence = Rtr_igp.Convergence
module Fcp = Rtr_baselines.Fcp
module Mrc = Rtr_baselines.Mrc
module Randroute = Rtr_baselines.Randroute
module Rtr = Rtr_core.Rtr
module Path = Rtr_graph.Path
module Metrics = Rtr_obs.Metrics
module Trace = Rtr_obs.Trace

let c_flows = Metrics.counter "netsim.flows"
let g_max_load = Metrics.gauge "netsim.max_load"

let ensure_metrics_registered () = ()

type flow = { src : Graph.node; dst : Graph.node; rate : int }

type scheme = No_recovery | Rtr_scheme | Fcp_scheme | Mrc_scheme | Randroute_scheme

let scheme_name = function
  | No_recovery -> "none"
  | Rtr_scheme -> "rtr"
  | Fcp_scheme -> "fcp"
  | Mrc_scheme -> "mrc"
  | Randroute_scheme -> "randroute"

let scheme_of_name = function
  | "none" -> Some No_recovery
  | "rtr" -> Some Rtr_scheme
  | "fcp" -> Some Fcp_scheme
  | "mrc" -> Some Mrc_scheme
  | "randroute" -> Some Randroute_scheme
  | _ -> None

type config = {
  igp : Rtr_igp.Igp_config.t;
  scheme : scheme;
  t_fail : float;
  t_end : float;
  episodes : (float * Damage.t) list;
  seed : int;
  overload_factor : float;
}

let default_config =
  {
    igp = Rtr_igp.Igp_config.classic;
    scheme = Rtr_scheme;
    t_fail = 0.5;
    t_end = 30.0;
    episodes = [];
    seed = 7;
    overload_factor = 1.25;
  }

(* A pooled recovery outcome: [Route] holds the links from the
   initiator to the destination, in order, and their total cost;
   [Pending] marks a pool cell not filled yet. *)
type outcome =
  | Pending
  | Dropped
  | Route of { links : Graph.link_id array; cost : int }

(* One ground-truth era, with its regime boundaries precomputed.  The
   flow engine's time model is piecewise constant per era:

     [e_start, e_det)   hold-down — routers forward on the pre-failure
                        FIBs; flows whose default path crosses the
                        damage black-hole
     [e_det, e_conv)    recovery window — broken flows are rerouted by
                        the configured scheme; this is where rerouted
                        load piles onto surviving links, so this window
                        is the congestion measurement window
     [e_conv, e_end)    converged — everything follows the era's
                        post-failure FIBs

   Unlike the per-packet engine, detection and convergence are global
   boundaries per era (the packet engine keeps them per link and per
   router); the differential oracle bounds the gap.  The three windows
   are quantized to milliseconds once, here, so every flow multiplies
   by the same integers. *)
type era = {
  hold_ms : int;  (* [e_start, e_det) *)
  rec_ms : int;  (* [e_det, e_conv) *)
  conv_ms : int;  (* [e_conv, e_end) *)
  e_damage : Damage.t;
  e_post : Route_table.t;
  breaks : int array;
      (* [breaks.(hop_slot u v l)]: the id of the unusable hop from live
         router [u] to neighbour [v] over link [l], or -1 when the hop
         is usable — the pre-failure walk's break test, without
         touching the damage *)
  outcomes : outcome Atomic.t array;
      (* the recovery pool of this era: [(break * n_nodes) + dst] *)
}

(* Pass 1, the recovery pool: every pooled scheme's outcome is a pure
   function of (era, initiator, trigger, dst), and the break id names
   the (initiator, trigger) pair, so one cell per (era, break, dst)
   serves every flow of every slice on every domain.  A cell is filled
   once, under [lock], by whichever domain reaches it first; its phase-2
   work is counted on that domain and absorbed at the join like any
   other metric, so counter totals do not depend on chunking or jobs.
   RTR sessions are keyed the same way and only touched under [lock]. *)
type context = {
  topo : Rtr_topo.Topology.t;
  g : Graph.t;
  config : config;
  pre : Route_table.t;
  pre_ms : int;  (* the pre-failure window, [0, t_fail) *)
  no_breaks : int array;  (* a break table with every hop usable *)
  eras : era array;
  mrc : Mrc.t option;
  rr : Randroute.t option;
  lock : Mutex.t;
  sessions : (int, Rtr.t) Hashtbl.t;
}

(* Millisecond quantization of a window. *)
let ms_between t0 t1 =
  if t1 <= t0 then 0 else int_of_float (Float.round ((t1 -. t0) *. 1000.0))

(* Each link has one break slot per direction; [u <> v] always. *)
let hop_slot u v l = (2 * l) + if u < v then 0 else 1

(* Numbers the unusable hops out of live routers: the link failed or
   the neighbour did, which is all a live router can see. *)
let break_table g damage =
  let breaks = Array.make (2 * Graph.n_links g) (-1) in
  let n_breaks = ref 0 in
  let mark u v l =
    if Damage.node_ok damage u && Damage.neighbor_unreachable damage v l then begin
      breaks.(hop_slot u v l) <- !n_breaks;
      incr n_breaks
    end
  in
  Graph.iter_links g (fun l u v ->
      mark u v l;
      mark v u l);
  (breaks, !n_breaks)

let pooled = function
  | Rtr_scheme | Fcp_scheme | Mrc_scheme -> true
  | No_recovery | Randroute_scheme -> false

let context topo damage ?mrc config =
  let g = Rtr_topo.Topology.graph topo in
  let n = Graph.n_nodes g in
  let timeline =
    (config.t_fail, damage)
    :: List.stable_sort
         (fun (a, _) (b, _) -> Float.compare a b)
         config.episodes
  in
  let era (e_start, e_damage) rest =
    let e_end =
      match rest with
      | (next, _) :: _ -> Float.min next config.t_end
      | [] -> config.t_end
    in
    let conv = Convergence.compute config.igp g e_damage in
    let e_det =
      Float.min (e_start +. config.igp.Rtr_igp.Igp_config.detection_s) e_end
    in
    let e_conv =
      Float.max
        (Float.min (e_start +. Convergence.finished_at conv) e_end)
        e_det
    in
    let breaks, n_breaks = break_table g e_damage in
    {
      hold_ms = ms_between e_start e_det;
      rec_ms = ms_between e_det e_conv;
      conv_ms = ms_between e_conv e_end;
      e_damage;
      e_post = Route_table.compute (Damage.view e_damage);
      breaks;
      outcomes =
        (if pooled config.scheme then
           Array.init (n_breaks * n) (fun _ -> Atomic.make Pending)
         else [||]);
    }
  in
  let rec build = function
    | [] -> []
    | step :: rest -> era step rest :: build rest
  in
  let mrc =
    match (config.scheme, mrc) with
    | Mrc_scheme, None -> Some (Mrc.build_auto g)
    | _, m -> m
  in
  let rr =
    match config.scheme with
    | Randroute_scheme -> Some (Randroute.create ~seed:config.seed g)
    | _ -> None
  in
  {
    topo;
    g;
    config;
    pre = Route_table.compute (View.full g);
    pre_ms = ms_between 0.0 (Float.min config.t_fail config.t_end);
    no_breaks = Array.make (2 * Graph.n_links g) (-1);
    eras = Array.of_list (build timeline);
    mrc;
    rr;
    lock = Mutex.create ();
    sessions = Hashtbl.create 64;
  }

(* --- integer accumulators ------------------------------------------- *)

(* Everything merged across shards is an integer (rate sums, rate x
   millisecond products, per-link load arrays): integer addition is
   associative, so any chunking of the flow array folds to the same
   totals and reports stay byte-identical at every --jobs.  The only
   floats are ratios computed once in [finish]. *)
type acc = {
  mutable flows : int;
  mutable offered : int;  (* rate x ms *)
  mutable delivered : int;
  mutable blackholed : int;
  mutable dropped_recovery : int;
  mutable dropped_no_route : int;
  mutable broken : int;  (* flow-eras whose default path crossed the damage *)
  mutable recovered : int;  (* of those, delivered during the recovery window *)
  mutable stretch_cost : int;  (* sum of recovery route costs, recovered flow-eras *)
  mutable stretch_best : int;  (* sum of converged shortest-path costs *)
  mutable stretch_max : float;
  base_loads : int array;  (* pps per link, pre-failure window *)
  rec_loads : int array array;  (* pps per link per era, recovery window *)
  post_loads : int array;  (* pps per link, converged windows *)
}

let acc_create ctx =
  let n_links = Graph.n_links ctx.g in
  {
    flows = 0;
    offered = 0;
    delivered = 0;
    blackholed = 0;
    dropped_recovery = 0;
    dropped_no_route = 0;
    broken = 0;
    recovered = 0;
    stretch_cost = 0;
    stretch_best = 0;
    stretch_max = 0.0;
    base_loads = Array.make n_links 0;
    rec_loads = Array.init (Array.length ctx.eras) (fun _ -> Array.make n_links 0);
    post_loads = Array.make n_links 0;
  }

let merge a b =
  a.flows <- a.flows + b.flows;
  a.offered <- a.offered + b.offered;
  a.delivered <- a.delivered + b.delivered;
  a.blackholed <- a.blackholed + b.blackholed;
  a.dropped_recovery <- a.dropped_recovery + b.dropped_recovery;
  a.dropped_no_route <- a.dropped_no_route + b.dropped_no_route;
  a.broken <- a.broken + b.broken;
  a.recovered <- a.recovered + b.recovered;
  a.stretch_cost <- a.stretch_cost + b.stretch_cost;
  a.stretch_best <- a.stretch_best + b.stretch_best;
  a.stretch_max <- Float.max a.stretch_max b.stretch_max;
  let add dst src = Array.iteri (fun i v -> dst.(i) <- dst.(i) + v) src in
  add a.base_loads b.base_loads;
  Array.iteri (fun e src -> add a.rec_loads.(e) src) b.rec_loads;
  add a.post_loads b.post_loads;
  a

(* --- pass 1: filling the recovery pool --------------------------------- *)

(* A node walk starting at [initiator] as links and cost.  The walk's
   own head is skipped: the route continues from wherever the flow
   broke, which is the initiator. *)
let route_of_nodes g ~initiator nodes =
  match nodes with
  | [] -> Dropped
  | _ :: tail ->
      let links = Array.make (List.length tail) 0 in
      let rec fill i u cost = function
        | [] -> cost
        | v :: rest -> (
            match Graph.find_link g u v with
            | Some l ->
                links.(i) <- l;
                fill (i + 1) v (cost + Graph.cost g l ~src:u) rest
            | None -> assert false)
      in
      let cost = fill 0 initiator 0 tail in
      Route { links; cost }

(* Callers hold [ctx.lock]. *)
let rtr_session ctx era_idx era ~initiator ~trigger =
  let n = Graph.n_nodes ctx.g in
  let key = (((era_idx * n) + initiator) * n) + trigger in
  match Hashtbl.find_opt ctx.sessions key with
  | Some s -> s
  | None ->
      let s = Rtr.start ctx.topo era.e_damage ~initiator ~trigger () in
      Hashtbl.replace ctx.sessions key s;
      s

(* RTR with Sec. III-E chaining, as the packet engine plays it: when a
   source route hits a failure phase 1 missed, the router at the break
   starts its own recovery session for the remaining journey.  The
   walked prefix is pushed onto the carried nodes one node at a time,
   so a long chain costs no non-tail append. *)
let rtr_recover ctx era_idx era ~initiator ~trigger ~dst =
  let rec go u trigger depth carried_rev =
    if depth > 8 then None
    else
      let s = rtr_session ctx era_idx era ~initiator:u ~trigger in
      match Rtr.recover s ~dst with
      | Rtr.Recovered p -> Some (List.rev_append carried_rev (Path.nodes p))
      | Rtr.Unreachable_in_view -> None
      | Rtr.False_path { path; dropped_at; _ } ->
          (* carry initiator .. the hop before [dropped_at]; the next
             session starts at [dropped_at], triggered by its dead hop *)
          let rec split carried = function
            | x :: y :: _ when x = dropped_at ->
                go dropped_at y (depth + 1) carried
            | x :: rest -> split (x :: carried) rest
            | [] -> None
          in
          split carried_rev (Path.nodes path)
  in
  go initiator trigger 0 []

(* Callers hold [ctx.lock]. *)
let compute_outcome ctx era_idx era ~initiator ~trigger ~dst =
  let nodes =
    match ctx.config.scheme with
    | Rtr_scheme -> rtr_recover ctx era_idx era ~initiator ~trigger ~dst
    | Fcp_scheme ->
        let res = Fcp.run ctx.topo era.e_damage ~initiator ~dst in
        if res.Fcp.delivered then Some (Path.nodes res.Fcp.journey) else None
    | Mrc_scheme -> (
        match ctx.mrc with
        | None -> None
        | Some mrc -> (
            match Mrc.recover mrc era.e_damage ~initiator ~trigger ~dst with
            | Mrc.Delivered p -> Some (Path.nodes p)
            | Mrc.Dropped _ -> None))
    | No_recovery | Randroute_scheme -> None
  in
  match nodes with
  | Some nodes -> route_of_nodes ctx.g ~initiator nodes
  | None -> Dropped

(* The pool cell of a break: a lock-free read once filled; the first
   reader fills it, and a racing reader waits on the lock and then
   finds it filled. *)
let pooled_outcome ctx era_idx era brk ~initiator ~trigger ~dst =
  let cell = era.outcomes.((brk * Graph.n_nodes ctx.g) + dst) in
  match Atomic.get cell with
  | Pending ->
      Mutex.protect ctx.lock (fun () ->
          match Atomic.get cell with
          | Pending ->
              let o = compute_outcome ctx era_idx era ~initiator ~trigger ~dst in
              Atomic.set cell o;
              o
          | o -> o)
  | o -> o

(* Randroute's choice depends on the flow, so it is drawn per flow and
   never pooled. *)
let randroute ctx era ~flow_idx ~initiator ~dst =
  match ctx.rr with
  | None -> Dropped
  | Some rr -> (
      match Randroute.reroute rr era.e_post ~flow:flow_idx ~initiator ~dst with
      | Randroute.Rerouted { nodes; _ } -> route_of_nodes ctx.g ~initiator nodes
      | Randroute.No_route -> Dropped)

(* --- pass 2: the per-flow loop ----------------------------------------- *)

(* Where the last [walk] stopped: the router, and its next hop when
   the walk stopped at a break. *)
type cursor = { mutable at : Graph.node; mutable next : Graph.node }

let reached = -1
let no_route = -2

(* Follows [table]'s route from [u] toward [dst], adding [rate] to
   [loads] on every link crossed.  Stops at [dst] ([reached]), at a
   missing route ([no_route]), or before the first hop that [breaks]
   marks unusable (the break's id); [cur] records where. *)
let rec walk table breaks loads rate cur u ~dst =
  if u = dst then begin
    cur.at <- u;
    reached
  end
  else
    let v = Route_table.next_hop_int table ~src:u ~dst in
    if v < 0 then begin
      cur.at <- u;
      no_route
    end
    else
      let l = Route_table.next_link_int table ~src:u ~dst in
      let brk = breaks.(hop_slot u v l) in
      if brk >= 0 then begin
        cur.at <- u;
        cur.next <- v;
        brk
      end
      else begin
        loads.(l) <- loads.(l) + rate;
        walk table breaks loads rate cur v ~dst
      end

(* Takes back what a [walk] charged from [u] up to [stop]. *)
let rec uncharge table loads rate u ~stop ~dst =
  if u <> stop then begin
    let l = Route_table.next_link_int table ~src:u ~dst in
    loads.(l) <- loads.(l) - rate;
    uncharge table loads rate (Route_table.next_hop_int table ~src:u ~dst) ~stop ~dst
  end

let charge_links loads links rate =
  for i = 0 to Array.length links - 1 do
    let l = links.(i) in
    loads.(l) <- loads.(l) + rate
  done

(* A broken flow in the recovery window: the walk has charged the
   pre-failure prefix up to the initiator [cur.at]; the scheme's
   outcome either extends it to [dst] or the prefix is taken back. *)
let recover_flow ctx acc cur ~flow_idx era_idx era brk ~src ~dst ~rate =
  let initiator = cur.at in
  let outcome =
    match ctx.config.scheme with
    | No_recovery -> Dropped
    | Randroute_scheme -> randroute ctx era ~flow_idx ~initiator ~dst
    | Rtr_scheme | Fcp_scheme | Mrc_scheme ->
        pooled_outcome ctx era_idx era brk ~initiator ~trigger:cur.next ~dst
  in
  let loads = acc.rec_loads.(era_idx) in
  match outcome with
  | Route { links; cost } ->
      acc.delivered <- acc.delivered + (rate * era.rec_ms);
      acc.recovered <- acc.recovered + 1;
      charge_links loads links rate;
      (* the prefix follows shortest-path rows, so its cost is a
         difference of the pre-failure table's distances *)
      let cost =
        Route_table.dist ctx.pre ~src ~dst
        - Route_table.dist ctx.pre ~src:initiator ~dst
        + cost
      in
      let best = Route_table.dist era.e_post ~src ~dst in
      if best > 0 && best < max_int then begin
        acc.stretch_cost <- acc.stretch_cost + cost;
        acc.stretch_best <- acc.stretch_best + best;
        let s = float_of_int cost /. float_of_int best in
        if s > acc.stretch_max then acc.stretch_max <- s
      end
  | Dropped | Pending ->
      acc.dropped_recovery <- acc.dropped_recovery + (rate * era.rec_ms);
      uncharge ctx.pre loads rate src ~stop:initiator ~dst

let eval_era ctx acc cur ~flow_idx era_idx era ~src ~dst ~rate =
  let total_ms = era.hold_ms + era.rec_ms + era.conv_ms in
  if total_ms > 0 && Damage.node_ok era.e_damage src then begin
    acc.offered <- acc.offered + (rate * total_ms);
    (* converged tail: the era's post-failure FIB *)
    if era.conv_ms > 0 then begin
      if Route_table.dist era.e_post ~src ~dst = max_int then
        acc.dropped_no_route <- acc.dropped_no_route + (rate * era.conv_ms)
      else begin
        acc.delivered <- acc.delivered + (rate * era.conv_ms);
        ignore
          (walk era.e_post ctx.no_breaks acc.post_loads rate cur src ~dst : int)
      end
    end;
    (* pre-convergence: the pre-failure FIB against this era's truth,
       charged to the recovery window as it is walked *)
    let charge = if era.rec_ms > 0 then rate else 0 in
    let loads = acc.rec_loads.(era_idx) in
    let verdict = walk ctx.pre era.breaks loads charge cur src ~dst in
    if verdict = reached then
      acc.delivered <- acc.delivered + (rate * (era.hold_ms + era.rec_ms))
    else if verdict = no_route then begin
      acc.dropped_no_route <-
        acc.dropped_no_route + (rate * (era.hold_ms + era.rec_ms));
      uncharge ctx.pre loads charge src ~stop:cur.at ~dst
    end
    else begin
      acc.blackholed <- acc.blackholed + (rate * era.hold_ms);
      if era.rec_ms > 0 then begin
        acc.broken <- acc.broken + 1;
        recover_flow ctx acc cur ~flow_idx era_idx era verdict ~src ~dst ~rate
      end
    end
  end

let eval_flow ctx acc cur ~flow_idx f =
  acc.flows <- acc.flows + 1;
  let src = f.src and dst = f.dst and rate = f.rate in
  if ctx.pre_ms > 0 then begin
    acc.offered <- acc.offered + (rate * ctx.pre_ms);
    if walk ctx.pre ctx.no_breaks acc.base_loads rate cur src ~dst = reached
    then acc.delivered <- acc.delivered + (rate * ctx.pre_ms)
    else begin
      acc.dropped_no_route <- acc.dropped_no_route + (rate * ctx.pre_ms);
      uncharge ctx.pre acc.base_loads rate src ~stop:cur.at ~dst
    end
  end;
  for era_idx = 0 to Array.length ctx.eras - 1 do
    eval_era ctx acc cur ~flow_idx era_idx ctx.eras.(era_idx) ~src ~dst ~rate
  done

let eval_slice ctx flows ~lo ~hi =
  let acc = acc_create ctx in
  let cur = { at = 0; next = 0 } in
  for i = lo to hi - 1 do
    let f = flows.(i) in
    if f.src <> f.dst && f.rate > 0 then eval_flow ctx acc cur ~flow_idx:i f
  done;
  acc

(* --- reduction -------------------------------------------------------- *)

type stats = {
  flows : int;
  offered_ratems : int;
  delivered_ratems : int;
  blackholed_ratems : int;
  dropped_recovery_ratems : int;
  dropped_no_route_ratems : int;
  delivered_frac : float;
  broken : int;
  recovered : int;
  stretch_agg : float;
  stretch_max : float;
  base_max_load : int;
  rec_max_load : int;
  post_max_load : int;
  overloaded_links : int;
  rec_link_loads : int array;
}

let array_max a = Array.fold_left max 0 a

let finish ctx acc =
  let n_links = Graph.n_links ctx.g in
  let rec_link_loads = Array.make n_links 0 in
  Array.iter
    (fun per_era ->
      for l = 0 to n_links - 1 do
        if per_era.(l) > rec_link_loads.(l) then
          rec_link_loads.(l) <- per_era.(l)
      done)
    acc.rec_loads;
  let base_max_load = array_max acc.base_loads in
  let rec_max_load = array_max rec_link_loads in
  let capacity =
    max 1
      (int_of_float
         (Float.round (ctx.config.overload_factor *. float_of_int base_max_load)))
  in
  let overloaded_links = ref 0 in
  Array.iter (fun v -> if v > capacity then incr overloaded_links) rec_link_loads;
  Metrics.Counter.add c_flows acc.flows;
  Metrics.Gauge.set_max g_max_load (float_of_int rec_max_load);
  {
    flows = acc.flows;
    offered_ratems = acc.offered;
    delivered_ratems = acc.delivered;
    blackholed_ratems = acc.blackholed;
    dropped_recovery_ratems = acc.dropped_recovery;
    dropped_no_route_ratems = acc.dropped_no_route;
    delivered_frac =
      (if acc.offered = 0 then 0.0
       else float_of_int acc.delivered /. float_of_int acc.offered);
    broken = acc.broken;
    recovered = acc.recovered;
    stretch_agg =
      (if acc.stretch_best = 0 then 1.0
       else float_of_int acc.stretch_cost /. float_of_int acc.stretch_best);
    stretch_max = acc.stretch_max;
    base_max_load;
    rec_max_load;
    post_max_load = array_max acc.post_loads;
    overloaded_links = !overloaded_links;
    rec_link_loads;
  }

let run topo damage ?mrc config flows =
  Trace.with_ "flowsim.run"
    ~attrs:
      [
        ("flows", string_of_int (Array.length flows));
        ("scheme", scheme_name config.scheme);
        ("episodes", string_of_int (List.length config.episodes));
      ]
  @@ fun () ->
  let ctx = context topo damage ?mrc config in
  finish ctx (eval_slice ctx flows ~lo:0 ~hi:(Array.length flows))

(* --- demand matrices -------------------------------------------------- *)

(* Gravity-style synthetic demand: endpoints drawn proportionally to
   node degree (hubs originate and sink more traffic), small integer
   rates.  Deterministic in (topology, seed, n). *)
let demand topo ~n ~seed =
  let g = Rtr_topo.Topology.graph topo in
  let n_nodes = Graph.n_nodes g in
  let rng = Rtr_util.Rng.make seed in
  let nodes = Array.init n_nodes (fun i -> i) in
  let weight u = float_of_int (Graph.degree g u) in
  Array.init n (fun _ ->
      let src = Rtr_util.Rng.pick_weighted rng nodes ~weight in
      let rec draw_dst tries =
        let d = Rtr_util.Rng.pick_weighted rng nodes ~weight in
        if d <> src || tries > 16 then d else draw_dst (tries + 1)
      in
      let dst = draw_dst 0 in
      let dst = if dst = src then (src + 1) mod n_nodes else dst in
      { src; dst; rate = 1 + Rtr_util.Rng.int rng 9 })
