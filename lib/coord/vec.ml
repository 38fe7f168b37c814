type 'a t = { mutable data : 'a array; mutable size : int }

let create () = { data = [||]; size = 0 }
let length v = v.size

let check v i =
  if i < 0 || i >= v.size then
    invalid_arg (Printf.sprintf "Vec: index %d out of bounds (size %d)" i v.size)

let get v i =
  check v i;
  v.data.(i)

let push v x =
  if v.size = Array.length v.data then begin
    let capacity = max 16 (2 * Array.length v.data) in
    let data = Array.make capacity x in
    Array.blit v.data 0 data 0 v.size;
    v.data <- data
  end;
  v.data.(v.size) <- x;
  v.size <- v.size + 1

let truncate v n =
  if n < 0 || n > v.size then invalid_arg "Vec.truncate";
  v.size <- n
