module Smap = Data.Tree.Smap

type image = {
  size_mb : int;
  template : bool;
  mutable exported : bool;
}

(* A persistent map in a mutable field: no bucket array per host. *)
type t = {
  capacity : int;
  mutable images : image Smap.t;
  handle : Device.t Lazy.t;
}

(* Every exported image, of every host, holds this maker's names array. *)
let image_maker =
  Data.Tree.maker ~kind:Schema.image_kind
    [ Schema.attr_size_mb; Schema.attr_template; Schema.attr_exported ]

let image_node img =
  image_maker
    [
      Data.Value.Int img.size_mb;
      Data.Value.Bool img.template;
      Data.Value.Bool img.exported;
    ]

let export_state host () =
  let node =
    Data.Tree.make_node ~kind:Schema.storage_host_kind
      ~attrs:[ Schema.attr_size_mb, Data.Value.Int host.capacity ]
      ()
  in
  Data.Tree.with_children node (Smap.map image_node host.images)

let used_mb host = Smap.fold (fun _ img acc -> acc + img.size_mb) host.images 0

let ( let* ) r f = Result.bind r f

let dispatch host ~action ~args =
  if String.equal action Schema.act_clone_image then
    let* template = Device.str_arg args 0 in
    let* image = Device.str_arg args 1 in
    (match Smap.find_opt template host.images with
     | None -> Error (Printf.sprintf "template %s does not exist" template)
     | Some { template = false; _ } ->
       Error (Printf.sprintf "%s is not a template" template)
     | Some src ->
       if Smap.mem image host.images then
         Error (Printf.sprintf "image %s already exists" image)
       else if used_mb host + src.size_mb > host.capacity then
         Error "storage host out of space"
       else
         Ok
           (host.images <-
              Smap.add image
                { size_mb = src.size_mb; template = false; exported = false }
                host.images))
  else if String.equal action Schema.act_remove_image then
    let* image = Device.str_arg args 0 in
    (match Smap.find_opt image host.images with
     | None -> Error (Printf.sprintf "image %s does not exist" image)
     | Some { template = true; _ } -> Error "cannot remove a template"
     | Some { exported = true; _ } ->
       Error (Printf.sprintf "image %s is still exported" image)
     | Some _ -> Ok (host.images <- Smap.remove image host.images))
  else if String.equal action Schema.act_export_image then
    let* image = Device.str_arg args 0 in
    (match Smap.find_opt image host.images with
     | None -> Error (Printf.sprintf "image %s does not exist" image)
     | Some ({ exported = false; _ } as img) -> Ok (img.exported <- true)
     | Some { exported = true; _ } ->
       Error (Printf.sprintf "image %s already exported" image))
  else if String.equal action Schema.act_unexport_image then
    let* image = Device.str_arg args 0 in
    (match Smap.find_opt image host.images with
     | None -> Error (Printf.sprintf "image %s does not exist" image)
     | Some ({ exported = true; _ } as img) -> Ok (img.exported <- false)
     | Some { exported = false; _ } ->
       Error (Printf.sprintf "image %s not exported" image))
  else Error (Printf.sprintf "storage host: unknown action %s" action)

let create ?(timing = `Instant) ?latency ?rng ~root ~capacity_mb () =
  let latency = Option.value latency ~default:Device.default_latency in
  let rng =
    match rng with Some r -> r | None -> Random.State.make [| 2207 |]
  in
  let rec host =
    {
      capacity = capacity_mb;
      images = Smap.empty;
      handle =
        lazy
          (Device.make ~root ~kind:Schema.storage_host_kind ~timing ~latency
             ~rng
             ~dispatch:(fun ~action ~args -> dispatch host ~action ~args)
             ~export_state:(export_state host));
    }
  in
  host

let device host = Lazy.force host.handle

let add_template host ~name ~size_mb =
  host.images <-
    Smap.add name { size_mb; template = true; exported = false } host.images

let preload_image host ~name ~size_mb ~exported =
  host.images <- Smap.add name { size_mb; template = false; exported } host.images

let image_names host = List.map fst (Smap.bindings host.images)

let is_template host name =
  match Smap.find_opt name host.images with
  | Some img -> img.template
  | None -> false

let is_exported host name =
  match Smap.find_opt name host.images with
  | Some img -> img.exported
  | None -> false

