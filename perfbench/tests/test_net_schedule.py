import numpy as np

from repro.net import NetConfig


def test_keyed_schedule_stays_bounded_and_picks_live_peers():
    from workloads import NetStorm

    wl = NetStorm()
    schedule = wl._schedule(12345)
    replication = NetConfig().replication
    alive = np.ones(wl.PEERS, dtype=bool)
    assert len(schedule["waves"]) == wl.WAVES
    for wave in schedule["waves"]:
        departed = wave["leaves"] + wave["kills"]
        assert 1 <= len(departed) <= replication - 1
        assert alive[departed].all()
        alive[departed] = False
        assert alive[wave["lookup_starts"]].all()
        assert alive[wave["put_origins"]].all()
        for slot, bootstrap in wave["rejoins"]:
            assert not alive[slot] and alive[bootstrap]
            alive[slot] = True
    assert len(schedule["final_keys"]) == wl.KEYS + wl.WAVES * wl.PUTS
    again = wl._schedule(12345)["waves"]
    for a, b in zip(schedule["waves"], again):
        assert np.array_equal(a["lookup_starts"], b["lookup_starts"])
        assert a["rejoins"] == b["rejoins"]
