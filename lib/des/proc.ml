exception Killed

type 'a resumer = ('a, exn) result -> unit

type state =
  | Embryo
  | Running
  | Suspended of { abort : exn -> unit }
  | Finished of (unit, exn) result

type t = {
  pname : string;
  sim : Sim.t;
  mutable state : state;
  mutable kill_requested : bool;
  mutable joiners : (unit, exn) result resumer list;
}

type _ Effect.t +=
  | Suspend : (t -> 'b resumer -> unit -> unit) -> 'b Effect.t
  | Self : t Effect.t

let alive p = match p.state with Finished _ -> false | Embryo | Running | Suspended _ -> true
let name p = p.pname
let sim_of p = p.sim

let result p =
  match p.state with
  | Finished r -> Some r
  | Embryo | Running | Suspended _ -> None

let finish p r =
  p.state <- Finished r;
  let joiners = List.rev p.joiners in
  p.joiners <- [];
  List.iter (fun resume -> resume (Ok r)) joiners

(* Park the continuation [k]: hand a one-shot resumer to [register], and
   remember an abort hook so that [kill] can resume with an exception.
   Resumption always goes through a zero-delay event, so a process never
   runs inside another process's stack frame. *)
let handle_suspend :
    type b. t -> (t -> b resumer -> unit -> unit) -> (b, unit) Effect.Deep.continuation -> unit
  =
 fun p register k ->
  let resumed = ref false in
  let cleanup = ref (fun () -> ()) in
  let resume res =
    if not !resumed then begin
      resumed := true;
      ignore
        (Sim.after p.sim 0. (fun () ->
             p.state <- Running;
             if p.kill_requested then Effect.Deep.discontinue k Killed
             else
               match res with
               | Ok v -> Effect.Deep.continue k v
               | Error e -> Effect.Deep.discontinue k e))
    end
  in
  let abort e =
    if not !resumed then begin
      !cleanup ();
      resume (Error e)
    end
  in
  p.state <- Suspended { abort };
  match register p resume with
  | c -> cleanup := c
  | exception e -> resume (Error e)

let start p body =
  p.state <- Running;
  Effect.Deep.match_with body ()
    {
      retc = (fun () -> finish p (Ok ()));
      exnc =
        (fun e ->
          (match e with
           | Killed -> ()
           | e -> Sim.record_failure p.sim p.pname e);
          finish p (Error e));
      effc =
        (fun (type c) (eff : c Effect.t) ->
          match eff with
          | Suspend register ->
            Some
              (fun (k : (c, unit) Effect.Deep.continuation) ->
                handle_suspend p register k)
          | Self -> Some (fun k -> Effect.Deep.continue k p)
          | _ -> None);
    }

let spawn ?(name = "proc") sim body =
  let p =
    { pname = name; sim; state = Embryo; kill_requested = false; joiners = [] }
  in
  ignore
    (Sim.after sim 0. (fun () ->
         if p.kill_requested then finish p (Error Killed) else start p body));
  p

let kill p =
  match p.state with
  | Finished _ -> ()
  | Embryo | Running -> p.kill_requested <- true
  | Suspended { abort } ->
    p.kill_requested <- true;
    abort Killed

let suspend register = Effect.perform (Suspend register)
let self () = Effect.perform Self

let sleep d =
  suspend (fun p resume ->
      let ev = Sim.after p.sim d (fun () -> resume (Ok ())) in
      fun () -> Sim.cancel ev)

let now () = Sim.now (sim_of (self ()))

let await target =
  match target.state with
  | Finished r -> r
  | Embryo | Running | Suspended _ ->
    suspend (fun _self resume ->
        target.joiners <- resume :: target.joiners;
        fun () -> ())

let run ?(until = 36_000.) ?(idle = fun () -> true) sim body =
  let main = spawn ~name:"main" sim body in
  let settled () =
    match result main with
    | None -> false
    | Some (Error _) -> true
    | Some (Ok ()) -> idle ()
  in
  ignore (Sim.run ~until ~stop:settled sim);
  result main = Some (Ok ()) && idle ()
