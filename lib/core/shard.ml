type t = {
  sid : int;
  count : int;
  assignment : (Data.Path.t * int) list;
}

let singleton ~roots =
  { sid = 0; count = 1; assignment = List.map (fun r -> (r, 0)) roots }

let partition ~shards roots =
  let shards = max 1 shards in
  let sorted = List.sort_uniq Data.Path.compare roots in
  List.mapi (fun i root -> (root, i mod shards)) sorted

let make ~sid ~shards roots =
  let shards = max 1 shards in
  { sid; count = shards; assignment = partition ~shards roots }

let view t ~sid = { t with sid }

let roots_of t sid =
  List.filter_map
    (fun (root, owner) -> if owner = sid then Some root else None)
    t.assignment


(* Deterministic fallback for paths outside every assigned subtree (the
   hierarchy above the device roots, or paths of a workload the partition
   never saw): a stable string hash, so [owner_of] is total and every
   replica — and the router on the client side — agrees. *)
let hash_owner t path =
  let s = Data.Path.to_string path in
  let h = ref 0 in
  String.iter (fun c -> h := ((!h * 31) + Char.code c) land 0x3FFFFFFF) s;
  !h mod t.count

let owner_of t path =
  let rec scan = function
    | [] -> hash_owner t path
    | (root, owner) :: rest ->
      if Data.Path.is_prefix root path || Data.Path.is_prefix path root then
        owner
      else scan rest
  in
  scan t.assignment

let owns t path = owner_of t path = t.sid
