#!/usr/bin/env python3
"""Generate the standard energy-age tradeoff datasets as CSV.

Four experiments, each the output of one ``aoilink sweep`` command below,
written into --outdir for external plotting:

- m_sweep_constant_power.csv: retransmission-limit sweep at several channel
  qualities with fixed transmit power (Es = Et = 4.02308 J).
- es_sweep_constant_power.csv: the same sweep at p = 0.4 rerun for several
  sensing energies, energies normalized per curve by Es + Et.
- power_control_sweep.csv: transmit power from 2 to 20 dBm in 3 dB steps
  under a Rayleigh budget (rate 2 bits/s/Hz, 20 dB reference SNR at 20 dBm),
  one curve per retransmission limit.
- es_sweep_power_control.csv: the power sweep at limit 6 rerun for several
  sensing energies, normalized per curve by Es + (Pc + eta * Pmax).
"""

import argparse
import sys
from pathlib import Path

from aoilink.cli import main as aoilink

ET_REF = "4.02308"  # J per slot: Pc + eta * Pmax = 2.1 + 19.2308 * 0.1 W
ES_LIST = "0,2.01154,4.02308,8.04616"  # 0, 0.5, 1 and 2 times ET_REF
BUDGET = (  # the 2-20 dBm grid and its Rayleigh link and amplifier
    "--dbm-min 2 --dbm-max 20 --dbm-step 3 --rate 2 --snr-ref-db 20 --p-ref-dbm 20"
    " --pc 2.1 --eta 19.2308 --pmax-dbm 20"
)

DATASETS = {
    "m_sweep_constant_power.csv": f"sweep m --p 0.1,0.2,0.3,0.4 --M 1..6 --es {ET_REF} --et {ET_REF}",
    "es_sweep_constant_power.csv": f"sweep es --base m --es-list {ES_LIST} --p 0.4 --M 1..6 --et {ET_REF}",
    "power_control_sweep.csv": f"sweep power {BUDGET} --M 1..6 --es {ET_REF}",
    "es_sweep_power_control.csv": f"sweep es --base power --es-list {ES_LIST} {BUDGET} --M 6",
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", default="tradeoff_curves", help="output directory")
    args = parser.parse_args()
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    for name, command in DATASETS.items():
        path = outdir / name
        code = aoilink([*command.split(), "--output", str(path)])
        if code != 0:
            sys.exit(code)
        print(f"wrote {path}: aoilink {command}")


if __name__ == "__main__":
    main()
