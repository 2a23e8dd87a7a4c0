(* Workload sizes: the full benchmark and the reduced smoke check. *)

let city ~smoke =
  if smoke then { City.rings = 4; radials = 20; commodities = 8 }
  else { City.rings = 25; radials = 100; commodities = 32 }

let serve ~smoke =
  {
    Serve.instances = (if smoke then 40 else 300);
    cache = (if smoke then 4 else 16);
    max_links = (if smoke then 100 else 1000);
    max_curved = (if smoke then 30 else 80);
    city_rings = (if smoke then 2 else 5);
    city_radials = (if smoke then 10 else 50);
    warmup = (if smoke then 10 else 100);
    replay = (if smoke then 20 else 300);
  }
