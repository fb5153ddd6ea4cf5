package netsim

// Virtual-channel flow control (a routing table with NumVCs > 0). Every
// link is multiplexed into numVCs lanes; each switch input port keeps one
// private buffer and one wormhole connection per lane, and senders spend
// per-lane credits instead of watching stop & go signals. A packet's lane
// comes from its source route (routes.Route.VC) and never changes in
// flight, so the switch's job stays Myrinet-simple: strip the route byte,
// connect the input lane to the requested output's matching lane, and
// time-multiplex the physical link over its connected lanes flit by flit.
//
// The switch pipeline is the one stop & go runs (switch.go), with more
// lanes: a lane with a new head packet requests the output port (routing
// computation), the output's routing unit grants lanes one header at a
// time (VC allocation — the output's matching lane must be free), and the
// established connection then competes with the output's other connected
// lanes for the physical link each cycle (switch traversal under credit
// flow control). The two flow-control models differ only where a flit
// leaves a buffer (a credit return, not a go check), on arrival (the lane
// depth, not the stop threshold) and in what counts as a link's idle time
// (exhausted credits, not a stopped link); credit returns ride the same
// signal pipeline as stop/go flits, and the sender reads them where it
// spends them (link.absorb). A NIC receives its lanes as it receives its
// one stop & go lane, a run at a time from the down-link's arrival stamps,
// and returns each flit's credit stamped at its arrival (nic.settleRx).
