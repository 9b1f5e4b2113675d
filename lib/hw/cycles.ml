type t = { mutable now : int }

let create () = { now = 0 }
let now clock = clock.now

let tick clock n =
  assert (n >= 0);
  clock.now <- clock.now + n

let elapsed clock ~since = clock.now - since

let time clock f =
  let start = clock.now in
  let result = f () in
  (result, clock.now - start)

let reset clock = clock.now <- 0
