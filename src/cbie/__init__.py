"""Boundary-integral solver for the equation u_x2x2 + i u_x1x2 = 0 on plane
domains convex in the x2 direction, with coupled boundary data
du/dx2 + alpha_k u = phi_k on the lower and upper boundary curves."""
