type direction = From_root | To_root

type t = {
  graph : Graph.t;
  root : Graph.node;
  direction : direction;
  dist : int array;
  parent_node : int array;
  parent_link : int array;
}

let root t = t.root
let direction t = t.direction
let dist t v = t.dist.(v)
let reached t v = t.dist.(v) < max_int
let parent_node t v = t.parent_node.(v)
let parent_link t v = t.parent_link.(v)

let path t v =
  if not (reached t v) then None
  else begin
    let rec walk acc u = if u = -1 then acc else walk (u :: acc) t.parent_node.(u) in
    (* walk visits v, parent v, ..., root, consing each in front: root..v. *)
    let root_to_v = walk [] v in
    match t.direction with
    | From_root -> Some (Path.of_nodes root_to_v)
    | To_root -> Some (Path.of_nodes (List.rev root_to_v))
  end

let copy t =
  {
    t with
    dist = Array.copy t.dist;
    parent_node = Array.copy t.parent_node;
    parent_link = Array.copy t.parent_link;
  }

let children t =
  let n = Graph.n_nodes t.graph in
  let kids = Array.make n [] in
  for v = n - 1 downto 0 do
    let p = t.parent_node.(v) in
    if p >= 0 then kids.(p) <- v :: kids.(p)
  done;
  kids
