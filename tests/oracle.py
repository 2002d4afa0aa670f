"""The centre reference every centre check rests on: a chain's centres from its side list, in mpmath.

It follows the construction rule alone and imports nothing from polyspiral.
Unit regular polygons are joined edge to edge, so the step between two
consecutive centres is the sum of their apothems cot(pi/s)/2, 0 for the
degenerate 2-gon.  The sides[0]-gon is centred at 0, the step leaving it
points at pi, and each odd s-gon, sides[0] included, turns the steps after
it by pi/s.
"""

from mpmath import mp, mpc, mpf


def apothem(s):
    return mp.cot(mp.pi / s) / 2 if s > 2 else mpf(0)


def centers(sides, dps=30):
    """Centres of the polygons sides[1:], summed step by step at dps digits; out[i] is geometry._centers(sides)[i]."""
    with mp.workdps(dps):
        turn, total, out = mpf(1), mpc(0), []
        leaving = apothem(sides[0])
        for s, t in zip(sides, sides[1:]):
            if s % 2:
                turn += mpf(1) / s
            entering = apothem(t)
            total += (leaving + entering) * mp.expjpi(turn)
            out.append(total)
            leaving = entering
    return out
