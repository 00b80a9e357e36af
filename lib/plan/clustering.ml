(* Stitching-scope identification (paper Sec 4.1).

   Memory-intensive subgraphs are the connected components of the graph
   restricted to memory-intensive non-leaf nodes *at the same compute
   depth*, where the compute depth of a node counts the compute-intensive
   ops on its longest path from the inputs.  Splitting by depth guarantees
   cycle-freedom: any path re-entering a cluster from outside must pass a
   compute-intensive op and therefore land at a strictly larger depth.

   Remote stitching then merges mutually-unreachable clusters so several
   disconnected subgraphs share one kernel launch. *)

open Astitch_ir

type cluster = {
  id : int;
  nodes : Op.node_id list; (* ascending = topological *)
}

let is_clusterable g id =
  (not (Kernel_plan.is_leaf g id))
  && Op.classify (Graph.op g id) = Op.Memory_intensive

(* Longest-path count of compute-intensive ops from the graph inputs. *)
let compute_depths g =
  let n = Graph.num_nodes g in
  let depth = Array.make n 0 in
  for id = 0 to n - 1 do
    let d =
      List.fold_left
        (fun acc operand ->
          let bump =
            match Op.classify (Graph.op g operand) with
            | Op.Compute_intensive -> 1
            | Op.Memory_intensive -> 0
          in
          Stdlib.max acc (depth.(operand) + bump))
        0 (Graph.operands g id)
    in
    depth.(id) <- d
  done;
  depth

(* Union-find over node ids. *)
let find parent i =
  let rec root i = if parent.(i) = i then i else root parent.(i) in
  let r = root i in
  (* path compression *)
  let rec compress i =
    if parent.(i) <> r then begin
      let next = parent.(i) in
      parent.(i) <- r;
      compress next
    end
  in
  compress i;
  r

let union parent a b =
  let ra = find parent a and rb = find parent b in
  if ra <> rb then parent.(Stdlib.max ra rb) <- Stdlib.min ra rb

(* Fault injection (Corrupt): drop the last node of a multi-node cluster
   (seed picks which).  The dropped node is live, so no kernel produces it
   and the plan fails the availability / output invariants — detectable by
   [Kernel_plan.check], never silently wrong. *)
let corrupt_clusters seed cs =
  match List.filter (fun c -> List.length c.nodes > 1) cs with
  | [] -> cs
  | multi ->
      let victim = (List.nth multi (abs seed mod List.length multi)).id in
      List.map
        (fun c ->
          if c.id = victim then
            let keep = List.length c.nodes - 1 in
            { c with nodes = List.filteri (fun i _ -> i < keep) c.nodes }
          else c)
        cs

let clusters g =
  let n = Graph.num_nodes g in
  let depth = compute_depths g in
  let is_clusterable g id = Graph.is_live g id && is_clusterable g id in
  let parent = Array.init n Fun.id in
  for id = 0 to n - 1 do
    if is_clusterable g id then
      List.iter
        (fun operand ->
          if is_clusterable g operand && depth.(operand) = depth.(id) then
            union parent operand id)
        (Graph.operands g id)
  done;
  let members = Hashtbl.create 64 in
  for id = n - 1 downto 0 do
    if is_clusterable g id then begin
      let r = find parent id in
      let existing = Option.value ~default:[] (Hashtbl.find_opt members r) in
      Hashtbl.replace members r (id :: existing)
    end
  done;
  let roots = Hashtbl.fold (fun r _ acc -> r :: acc) members [] in
  let cs =
    List.sort compare roots
    |> List.mapi (fun i r -> { id = i; nodes = Hashtbl.find members r })
  in
  match Fault_site.check Fault_site.Clustering ~pass:"clustering" with
  | None -> cs
  | Some seed -> corrupt_clusters seed cs

(* --- Remote stitching --------------------------------------------------- *)

(* Bitset over cluster ids. *)
module Bits = struct
  type t = Bytes.t

  let _ = (fun (x : t) -> x)

  let create n = Bytes.make ((n + 7) / 8) '\000'

  let set b i =
    let c = Char.code (Bytes.get b (i / 8)) in
    Bytes.set b (i / 8) (Char.chr (c lor (1 lsl (i mod 8))))

  let mem b i = Char.code (Bytes.get b (i / 8)) land (1 lsl (i mod 8)) <> 0

  let union_into ~into src =
    for i = 0 to Bytes.length into - 1 do
      Bytes.set into i
        (Char.chr
           (Char.code (Bytes.get into i) lor Char.code (Bytes.get src i)))
    done

end

(* For each node, the set of clusters reachable strictly downstream. *)
let downstream_clusters g ~num_clusters ~cluster_of =
  let n = Graph.num_nodes g in
  let reach = Array.init n (fun _ -> Bits.create num_clusters) in
  for id = n - 1 downto 0 do
    List.iter
      (fun consumer ->
        Bits.union_into ~into:reach.(id) reach.(consumer);
        match cluster_of.(consumer) with
        | Some c -> Bits.set reach.(id) c
        | None -> ())
      (Graph.consumers g id)
  done;
  reach

(* Merge mutually-unreachable clusters, bounded by [max_merge_width]
   members per stitch op.

   Safety argument: clusters are levelled by longest path in the
   cluster-reachability DAG.  Two clusters at the same level cannot reach
   each other (reachability strictly increases the level), so merging
   within a level never builds a cyclic kernel; and because every
   cross-group dependency goes from a strictly lower level to a higher
   one, the *grouped* kernel graph stays acyclic as well — pairwise
   checks alone do not give that second property. *)
let remote_stitch_groups ?(max_merge_width = 4) g (cs : cluster list) =
  let num_clusters = List.length cs in
  if num_clusters <= 1 then List.map (fun c -> [ c ]) cs
  else begin
    let n = Graph.num_nodes g in
    let cluster_of = Array.make n None in
    List.iter
      (fun c -> List.iter (fun id -> cluster_of.(id) <- Some c.id) c.nodes)
      cs;
    let node_reach = downstream_clusters g ~num_clusters ~cluster_of in
    (* cluster-level reachability (downstream), as bitsets *)
    let creach = Array.init num_clusters (fun _ -> Bits.create num_clusters) in
    List.iter
      (fun c ->
        List.iter
          (fun id -> Bits.union_into ~into:creach.(c.id) node_reach.(id))
          c.nodes)
      cs;
    (* longest-path levels over the reachability DAG (Kahn) *)
    let level = Array.make num_clusters 0 in
    let indegree = Array.make num_clusters 0 in
    let reaches a b = a <> b && Bits.mem creach.(a) b in
    for a = 0 to num_clusters - 1 do
      for b = 0 to num_clusters - 1 do
        if reaches a b then indegree.(b) <- indegree.(b) + 1
      done
    done;
    let queue = Queue.create () in
    Array.iteri (fun c d -> if d = 0 then Queue.add c queue) indegree;
    let processed = ref 0 in
    while not (Queue.is_empty queue) do
      let a = Queue.pop queue in
      incr processed;
      for b = 0 to num_clusters - 1 do
        if reaches a b then begin
          if level.(b) < level.(a) + 1 then level.(b) <- level.(a) + 1;
          indegree.(b) <- indegree.(b) - 1;
          if indegree.(b) = 0 then Queue.add b queue
        end
      done
    done;
    assert (!processed = num_clusters);
    (* group clusters by level, chunking at the width cap *)
    let by_level = Hashtbl.create 16 in
    List.iter
      (fun c ->
        let l = level.(c.id) in
        Hashtbl.replace by_level l
          (c :: Option.value ~default:[] (Hashtbl.find_opt by_level l)))
      cs;
    let levels = Hashtbl.fold (fun l _ acc -> l :: acc) by_level [] in
    let groups =
      List.concat_map
        (fun l ->
          let members = List.rev (Hashtbl.find by_level l) in
          let rec chunk = function
            | [] -> []
            | rest ->
                let took = List.filteri (fun i _ -> i < max_merge_width) rest in
                let remaining =
                  List.filteri (fun i _ -> i >= max_merge_width) rest
                in
                took :: chunk remaining
          in
          chunk members)
        (List.sort compare levels)
    in
    groups
  end

let remote_stitch ?max_merge_width g cs =
  remote_stitch_groups ?max_merge_width g cs
  |> List.mapi (fun i group ->
         let nodes =
           List.concat_map (fun c -> c.nodes) group |> List.sort_uniq compare
         in
         { id = i; nodes })
