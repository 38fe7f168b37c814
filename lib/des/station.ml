type job = { service : float; notify : unit Proc.resumer option }

type t = {
  jobs : job Channel.t;
  mutable busy : float;
  mutable in_system : int;
  mutable served : int;
}

let serve st () =
  while true do
    let job = Channel.recv st.jobs in
    Proc.sleep job.service;
    st.busy <- st.busy +. job.service;
    st.served <- st.served + 1;
    st.in_system <- st.in_system - 1;
    match job.notify with None -> () | Some resume -> resume (Ok ())
  done

let create ?(name = "station") sim =
  let st =
    {
      jobs = Channel.create ();
      busy = 0.;
      in_system = 0;
      served = 0;
    }
  in
  ignore (Proc.spawn ~name:(name ^ ".server") sim (serve st));
  st


let check_service service =
  if service < 0. then invalid_arg "Station: negative service time"

let request st ~service =
  check_service service;
  st.in_system <- st.in_system + 1;
  Proc.suspend (fun _p resume ->
      Channel.send st.jobs { service; notify = Some resume };
      fun () -> ())

let post st ~service =
  check_service service;
  st.in_system <- st.in_system + 1;
  Channel.send st.jobs { service; notify = None }

let busy_time st = st.busy
let queue_length st = st.in_system
let completed st = st.served
