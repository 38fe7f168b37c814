type route =
  | Single of int
  | Cross of { coord : int; participants : int list }

let arg_paths args =
  List.filter_map
    (function
      | Data.Value.Str s when String.length s > 0 && s.[0] = '/' ->
        (match Data.Path.of_string s with Ok p -> Some p | Error _ -> None)
      | Data.Value.Null | Data.Value.Bool _ | Data.Value.Int _
      | Data.Value.Float _ | Data.Value.Str _ | Data.Value.List _ ->
        None)
    args

let classify shard ~args =
  match
    arg_paths args
    |> List.map (Shard.owner_of shard)
    |> List.sort_uniq compare
  with
  | [] -> Single 0
  | [ sid ] -> Single sid
  | coord :: rest -> Cross { coord; participants = rest }

let is_cross shard ~args =
  match classify shard ~args with Single _ -> false | Cross _ -> true
