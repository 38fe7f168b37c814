type 'a waiter = { mutable live : bool; deliver : 'a -> unit }

type 'a t = {
  items : 'a Queue.t;
  waiters : 'a waiter Queue.t;
}

let create () = { items = Queue.create (); waiters = Queue.create () }

let length ch = Queue.length ch.items

let rec pop_live_waiter ch =
  match Queue.take_opt ch.waiters with
  | None -> None
  | Some w when not w.live -> pop_live_waiter ch
  | Some w -> Some w

let send ch item =
  match pop_live_waiter ch with
  | Some w ->
    w.live <- false;
    w.deliver item
  | None -> Queue.push item ch.items

let try_recv ch = Queue.take_opt ch.items

(* Register a waiter together with an optional timeout timer; whichever of
   delivery, timeout and abort comes first wins and disarms the others. *)
let recv_general ch ~timeout =
  match Queue.take_opt ch.items with
  | Some v -> Some v
  | None ->
    Proc.suspend (fun p resume ->
        let timer = ref None in
        let cancel_timer () =
          match !timer with None -> () | Some ev -> Sim.cancel ev
        in
        let w =
          {
            live = true;
            deliver =
              (fun v ->
                cancel_timer ();
                resume (Ok (Some v)));
          }
        in
        Queue.push w ch.waiters;
        (match timeout with
         | None -> ()
         | Some d ->
           timer :=
             Some
               (Sim.after (Proc.sim_of p) d (fun () ->
                    if w.live then begin
                      w.live <- false;
                      resume (Ok None)
                    end)));
        fun () ->
          w.live <- false;
          cancel_timer ())

let recv ch =
  match recv_general ch ~timeout:None with
  | Some v -> v
  | None -> assert false (* no timeout was armed *)

let recv_timeout ch ~timeout = recv_general ch ~timeout:(Some timeout)
